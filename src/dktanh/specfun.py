"""Complex special functions: gamma, Gauss/confluent hypergeometric, Weber D.

Scalar complex-in/complex-out implementations (and one array entry for 2F1)
tuned for the parameter ranges
of the tanh-sweep solver (|parameters| up to a few tens, hypergeometric
argument on (0, 1)).  Everything is double precision with explicit
truncation and transformation strategies (one cancellation-prone regime of
the confluent series runs in numpy extended precision):

* ``cgamma``  - Lanczos approximation (g = 607/128, 15 coefficients) with the
  reflection formula for Re z < 1/2.
* ``hyp2f1``  - direct Gauss series for |z| <= 1/2, argument transformations
  z -> 1-z and z -> z/(z-1) otherwise, with a parameter-perturbation limit
  for the logarithmic (integer c-a-b) cases.  Work that depends only on the
  parameter triple is done once per triple and kept in two small LRU memos:
  one holds, per triple on the 1-z route, the seven gamma factors of the
  connection formula and the term ratios of its two series; the other holds
  the term ratios (a+n)(b+n)/((c+n)(n+1)) of each series summed directly.
  Ratios grow to the deepest term any argument has needed.  Each memo holds
  one parameter set's working set, and the cached factors are multiplied in
  the same order as when they were computed per point, so results are
  bit-identical to that.
* ``hyp2f1_array`` - ``hyp2f1`` for several parameter triples at every point
  of a float array x in (0, 1], the only arguments the propagator needs:
  the series for x <= 1/2, the 1-z formula beyond (with its logarithmic
  case), the Gauss series of all triples summed together as one numpy term
  matrix, reading and growing the same memos.  It repeats ``hyp2f1``'s
  floating-point operations in ``hyp2f1``'s order (CPython's complex
  products and quotients, libm's log), so the two agree to the last bit
  where CPython rounds each real product on its own, as on x86-64.  The
  propagator's array route calls it once per basis evaluation of a whole
  time or beta grid; single points keep the scalar ``hyp2f1``, which is
  cheaper for one argument.
* ``kummer_m`` - confluent series, switching to the large-argument expansion
  when |z| > 20 (needed by ``pcf_d`` out to |z^2/2| ~ 30 and beyond).
* ``pcf_d``   - Weber parabolic cylinder function from the standard two-term
  Kummer combination; entire in both order and argument.
"""

from __future__ import annotations

import cmath
import functools
import math

import numpy as np

__all__ = [
    "SpecFunError",
    "PoleError",
    "ConvergenceError",
    "cgamma",
    "rgamma",
    "hyp2f1",
    "hyp2f1_array",
    "hyp2f1_derivative",
    "kummer_m",
    "pcf_d",
]


class SpecFunError(Exception):
    """Base class for special-function evaluation failures."""


class PoleError(SpecFunError, ValueError):
    """A parameter sits on a pole of the requested function."""


class ConvergenceError(SpecFunError, ArithmeticError):
    """A series failed to reach the target tolerance within its term budget."""


_SERIES_TOL = 1e-17
_MAX_TERMS = 2000

_SQRT_PI = math.sqrt(math.pi)
_SQRT_2PI = math.sqrt(2.0 * math.pi)
_LN2 = math.log(2.0)

# Lanczos g = 607/128 with 15 coefficients; full double accuracy on the half
# plane Re z >= 1/2.
_LANCZOS_G = 4.7421875
_LANCZOS_C = (
    0.99999999999999709182,
    57.156235665862923517,
    -59.597960355475491248,
    14.136097974741747174,
    -0.49191381609762019978,
    3.3994649984811888699e-5,
    4.6523628927048575665e-5,
    -9.8374475304879564677e-5,
    1.5808870322491248884e-4,
    -2.1026444172410488319e-4,
    2.1743961811521264320e-4,
    -1.6431810653676389022e-4,
    8.4418223983852743293e-5,
    -2.6190838401581408670e-5,
    3.6899182659531622704e-6,
)


def _is_nonpositive_integer(z: complex) -> bool:
    return z.imag == 0.0 and z.real <= 0.0 and z.real == round(z.real)


def _lanczos(z: complex) -> complex:
    # requires Re z >= 0.5
    zm1 = z - 1.0
    s = complex(_LANCZOS_C[0])
    for k in range(1, len(_LANCZOS_C)):
        s += _LANCZOS_C[k] / (zm1 + k)
    t = zm1 + _LANCZOS_G + 0.5
    return _SQRT_2PI * cmath.exp((zm1 + 0.5) * cmath.log(t) - t) * s


def cgamma(z) -> complex:
    """Gamma function for complex argument.

    Raises PoleError at the nonpositive integers.
    """
    z = complex(z)
    if _is_nonpositive_integer(z):
        raise PoleError(f"gamma pole at z = {z}")
    if z.real < 0.5:
        # reflection: gamma(z) = pi / (sin(pi z) * gamma(1-z))
        return math.pi / (cmath.sin(math.pi * z) * _lanczos(1.0 - z))
    return _lanczos(z)


def rgamma(z) -> complex:
    """Reciprocal gamma, entire: exactly 0 at the nonpositive integers."""
    z = complex(z)
    if _is_nonpositive_integer(z):
        return 0j
    return 1.0 / cgamma(z)


# ---------------------------------------------------------------------------
# Gauss hypergeometric 2F1
# ---------------------------------------------------------------------------


# One HyperParams evaluates four 2F1 triples at every point; the logarithmic
# case adds a c +/- eps pair for each, and the z -> z/(z-1) route sums the
# series of a derived triple.  A few dozen entries hold that working set.
_MEMO_SIZE = 32


@functools.lru_cache(maxsize=_MEMO_SIZE)
def _series_ratios(a: complex, b: complex, c: complex) -> list:
    """Ratio slot of the Gauss series of (a, b, c).

    A slot is a one-element list holding the known term ratios
    (a+n)(b+n)/((c+n)(n+1)) as a tuple.  ``_gauss_series`` only ever replaces
    that tuple with a longer one, so a caller that has read it never sees a
    ratio move under it.
    """
    return [()]


def _gauss_series(
    a: complex, b: complex, c: complex, z: complex, slot: list | None = None
) -> complex:
    if slot is None:
        slot = _series_ratios(a, b, c)
    known = slot[0]
    term = 1.0 + 0j
    total = 1.0 + 0j
    small = 0
    for r in known:
        term *= r * z
        total += term
        if abs(term) <= _SERIES_TOL * abs(total):
            small += 1
            if small >= 2:
                return total
        else:
            small = 0
    # deeper than any earlier argument of this triple: the same loop, with
    # the new ratios computed and recorded
    ratios = list(known)
    try:
        for n in range(len(known), _MAX_TERMS):
            r = (a + n) * (b + n) / ((c + n) * (n + 1))
            ratios.append(r)
            term *= r * z
            total += term
            if abs(term) <= _SERIES_TOL * abs(total):
                small += 1
                if small >= 2:
                    return total
            else:
                small = 0
    finally:
        slot[0] = tuple(ratios)
    raise ConvergenceError(
        f"2F1 series did not converge in {_MAX_TERMS} terms "
        f"(a={a}, b={b}, c={c}, z={z})"
    )


@functools.lru_cache(maxsize=_MEMO_SIZE)
def _connection(a: complex, b: complex, c: complex) -> tuple:
    """The z-independent parts of the 1-z formula for (a, b, c), d = c-a-b:
    Gamma(c), Gamma(d), 1/Gamma(c-a), 1/Gamma(c-b), Gamma(-d), 1/Gamma(a),
    1/Gamma(b), and the ratio slots of its two series."""
    d = c - a - b
    return (
        cgamma(c),
        cgamma(d),
        rgamma(c - a),
        rgamma(c - b),
        cgamma(-d),
        rgamma(a),
        rgamma(b),
        [()],
        [()],
    )


def _one_minus_z_formula(
    a: complex, b: complex, c: complex, z: complex, omz: complex
) -> complex:
    # valid when d = c-a-b is not an integer
    d = c - a - b
    g_c, g_d, rg_ca, rg_cb, g_md, rg_a, rg_b, slot1, slot2 = _connection(a, b, c)
    t1 = g_c * g_d * rg_ca * rg_cb * _gauss_series(a, b, 1.0 - d, omz, slot1)
    t2 = (
        cmath.exp(d * cmath.log(omz))
        * g_c
        * g_md
        * rg_a
        * rg_b
        * _gauss_series(c - a, c - b, 1.0 + d, omz, slot2)
    )
    return t1 + t2


def _via_one_minus_z(
    a: complex, b: complex, c: complex, z: complex, omz: complex
) -> complex:
    d = c - a - b
    if abs(d - round(d.real)) < 1e-6:
        # logarithmic neighbourhood: the two-term formula degenerates
        if abs(z) <= 0.92:
            # the plain series still converges and has no cancellation
            return _gauss_series(a, b, c, z)
        # take the limit numerically: evaluate at c +/- eps and average, which
        # cancels the O(eps) term of the expansion around the degenerate point
        eps = 1e-7
        fp = _one_minus_z_formula(a, b, c + eps, z, omz)
        fm = _one_minus_z_formula(a, b, c - eps, z, omz)
        return 0.5 * (fp + fm)
    return _one_minus_z_formula(a, b, c, z, omz)


def hyp2f1(a, b, c, z, *, one_minus_z=None) -> complex:
    """Gauss hypergeometric F(a, b; c; z) for complex parameters.

    ``one_minus_z`` may be supplied when 1-z is known to better relative
    accuracy than the subtraction (the solver passes it near the saturated
    ends of the sweep, where z -> 1 geometrically).

    Raises PoleError when c is a nonpositive integer and ConvergenceError
    when no argument transformation reaches a convergent region.
    """
    a = complex(a)
    b = complex(b)
    c = complex(c)
    z = complex(z)
    if _is_nonpositive_integer(c):
        raise PoleError(f"2F1 parameter pole: c = {c}")
    omz = complex(one_minus_z) if one_minus_z is not None else 1.0 - z
    if z == 0:
        return 1.0 + 0j
    if a == 0 or b == 0:
        return 1.0 + 0j
    # elementary closed forms (exact, and they sidestep degenerate transforms)
    if c == b:
        return cmath.exp(-a * cmath.log(omz))
    if c == a:
        return cmath.exp(-b * cmath.log(omz))
    if abs(z) <= 0.5:
        return _gauss_series(a, b, c, z)
    if abs(omz) <= 0.75:
        return _via_one_minus_z(a, b, c, z, omz)
    if omz != 0:
        w = -z / omz  # z/(z-1)
        if abs(w) <= 0.75:
            return cmath.exp(-a * cmath.log(omz)) * _gauss_series(a, c - b, c, w)
    if abs(z) <= 0.92:
        return _gauss_series(a, b, c, z)
    raise ConvergenceError(
        f"no 2F1 transformation reaches a convergent region for z = {z}"
    )


# ---------------------------------------------------------------------------
# Gauss hypergeometric 2F1 over an array of real arguments in (0, 1)
# ---------------------------------------------------------------------------

# Terms per pass of the array series: the first pass is short because most
# points of a sweep sit near the saturated ends and stop within a few terms;
# later passes double up to _SERIES_BLOCK, which bounds the term matrix
# (live points x _SERIES_BLOCK) however deep a series goes.
_SERIES_BLOCK_FIRST = 8
_SERIES_BLOCK = 64


def _cmul(x, y):
    """x * y for complex arrays (or Python numbers), with CPython's complex
    multiply: each real product rounded on its own.  numpy's complex
    multiply may fuse a product into the sum, and the 1-z formula amplifies
    a last-bit difference by its cancellation."""
    xr, xi, yr, yi = x.real, x.imag, y.real, y.imag
    out = np.empty(np.broadcast(xr, yr).shape, dtype=complex)
    out.real = xr * yr - xi * yi
    out.imag = xr * yi + xi * yr
    return out


def _cdiv(x, y):
    """x / y for complex arrays (or Python numbers) by CPython's complex
    division: Smith's method, scaled by the larger part of y.  Raises
    ZeroDivisionError as CPython does."""
    xr, xi, yr, yi = x.real, x.imag, y.real, y.imag
    if np.any((yr == 0.0) & (yi == 0.0)):
        raise ZeroDivisionError("complex division by zero")
    by_re = np.abs(yr) >= np.abs(yi)
    ratio = np.where(by_re, yi, yr) / np.where(by_re, yr, yi)
    denom = np.where(by_re, yr + yi * ratio, yr * ratio + yi)
    out = np.empty(np.broadcast(xr, yr).shape, dtype=complex)
    out.real = np.where(by_re, xr + xi * ratio, xr * ratio + xi) / denom
    out.imag = np.where(by_re, xi - xr * ratio, xi * ratio - xr) / denom
    return out


def _ratio_rows(series: list, kinds: list, start: int, stop: int) -> np.ndarray:
    """Term ratios start..stop-1 of each series in ``kinds`` (indices into
    ``series``), one row per series, from its ratio slot.  A slot shorter
    than stop first grows by the ratios ``_gauss_series`` would record."""
    rows = np.zeros((len(series), stop - start), dtype=complex)
    for k in kinds:
        a, b, c, slot, _ = series[k]
        known = slot[0]
        if len(known) < stop:
            known = known + tuple(
                (a + n) * (b + n) / ((c + n) * (n + 1)) for n in range(len(known), stop)
            )
            slot[0] = known
        rows[k] = known[start:stop]
    return rows


def _gauss_series_array(series: list) -> list:
    """``_gauss_series`` for each (a, b, c, slot, z) of ``series`` at every
    point of its real array z, all series summed in one term matrix.

    Each point stops where the scalar loop stops, at the second consecutive
    term below _SERIES_TOL of the running sum.  ``cumprod`` and ``cumsum``
    along a block of terms form the scalar loop's products and sums in its
    order, seeded with the term and sum carried from the previous block, so
    the sums round as the scalar loop's do (np.abs may round a magnitude
    1 ulp away from ``abs``, which moves a stop only on an exact tie).  A
    term that overflows leaves its point unconverged, as in the scalar loop.
    """
    z = np.concatenate([s[4] for s in series])
    kind = np.repeat(np.arange(len(series)), [s[4].size for s in series])
    out = np.empty(z.size, dtype=complex)
    live = np.arange(z.size)
    term = np.ones(z.size, dtype=complex)
    total = term.copy()
    small = np.zeros(z.size, dtype=bool)
    start, width = 0, _SERIES_BLOCK_FIRST
    with np.errstate(over="ignore", invalid="ignore"):
        while live.size:
            if start >= _MAX_TERMS:
                a, b, c, _, _ = series[kind[live[0]]]
                raise ConvergenceError(
                    f"2F1 series did not converge in {_MAX_TERMS} terms "
                    f"(a={a}, b={b}, c={c}, z={complex(z[live[0]])})"
                )
            stop = min(start + width, _MAX_TERMS)
            width = min(2 * width, _SERIES_BLOCK)
            live_kind = kind[live]
            used = np.flatnonzero(np.bincount(live_kind, minlength=len(series)))
            ratios = _ratio_rows(series, used.tolist(), start, stop)
            # column 0 carries the previous term into the products, then the
            # previous sum into the sums
            block = np.empty((live.size, stop - start + 1), dtype=complex)
            block[:, 0] = term
            np.multiply(ratios[live_kind], z[live, None], out=block[:, 1:])
            np.cumprod(block, axis=1, out=block)
            size = np.abs(block[:, 1:])
            term = block[:, -1].copy()
            block[:, 0] = total
            np.cumsum(block, axis=1, out=block)
            sums = block[:, 1:]
            below = size <= _SERIES_TOL * np.abs(sums)
            done = below.copy()
            done[:, 0] &= small
            done[:, 1:] &= below[:, :-1]
            hit = done.any(axis=1)
            out[live[hit]] = sums[hit, done[hit].argmax(axis=1)]
            keep = ~hit
            live = live[keep]
            term, total, small = term[keep], sums[keep, -1], below[keep, -1]
            start = stop
    return np.split(out, np.cumsum([s[4].size for s in series])[:-1])


def _one_minus_z_array(a, b, c, omz, series: list):
    """``_one_minus_z_formula`` at every point of omz: queues its two series
    on ``series`` and returns the function that combines their sums with the
    gamma factors in the scalar formula's order and rounding."""
    d = c - a - b
    g_c, g_d, rg_ca, rg_cb, g_md, rg_a, rg_b, slot1, slot2 = _connection(a, b, c)
    k = len(series)
    series.append((a, b, 1.0 - d, slot1, omz))
    series.append((c - a, c - b, 1.0 + d, slot2, omz))

    def combine(sums: list) -> np.ndarray:
        t1 = _cmul(g_c * g_d * rg_ca * rg_cb, sums[k])
        # libm's log, as cmath.log takes it for these arguments (positive,
        # below 0.71); numpy's vectorised log may differ in the last bit
        log_omz = np.fromiter(map(math.log, omz.tolist()), float, omz.size)
        power = np.empty(omz.size, dtype=complex)
        power.real = d.real * log_omz
        power.imag = d.imag * log_omz
        t2 = np.exp(power)
        for factor in (g_c, g_md, rg_a, rg_b, sums[k + 1]):
            t2 = _cmul(t2, factor)
        return t1 + t2

    return combine


def _hyp2f1_array_plan(a, b, c, x, one_minus_x, series: list):
    """Route every point of x as ``hyp2f1`` routes it, queue the Gauss series
    the routes need on ``series``, and return the function that builds
    F(a, b; c; x) from their sums."""
    if _is_nonpositive_integer(c):
        raise PoleError(f"2F1 parameter pole: c = {c}")
    if a == 0 or b == 0:
        return lambda sums: np.ones(x.size, dtype=complex)
    if c == b or c == a:
        e = a if c == b else b
        value = np.array([cmath.exp(-e * cmath.log(v)) for v in one_minus_x.tolist()])
        return lambda sums: value
    d = c - a - b
    logarithmic = abs(d - round(d.real)) < 1e-6
    # the plain series reaches 0.92 in the logarithmic case, where the
    # two-term formula degenerates
    direct = x <= (0.92 if logarithmic else 0.5)
    k = len(series)
    series.append((a, b, c, _series_ratios(a, b, c), x[direct]))
    omz = one_minus_x[~direct]
    if not omz.size:
        # no point on the 1-z route: its gamma factors are never needed
        # (and may overflow where the series alone is fine)
        formula = None
    elif logarithmic:
        # the limit of the formula at c +/- eps, averaged as in ``hyp2f1``
        eps = 1e-7
        plus = _one_minus_z_array(a, b, c + eps, omz, series)
        minus = _one_minus_z_array(a, b, c - eps, omz, series)
        formula = lambda sums: 0.5 * (plus(sums) + minus(sums))  # noqa: E731
    else:
        formula = _one_minus_z_array(a, b, c, omz, series)

    def build(sums: list) -> np.ndarray:
        out = np.empty(x.size, dtype=complex)
        out[direct] = sums[k]
        if formula is not None:
            out[~direct] = formula(sums)
        return out

    return build


def hyp2f1_array(triples, x: np.ndarray, one_minus_x: np.ndarray) -> list:
    """``hyp2f1(a, b, c, xi, one_minus_z=1-xi)`` for every (a, b, c) of
    ``triples`` at every point xi of a 1-D float array x in (0, 1], with 1-x
    supplied alongside as in ``hyp2f1``; one complex array per triple.

    Each point takes the route ``hyp2f1`` takes it on: the Gauss series for
    x <= 1/2, the 1-z formula beyond, and in its logarithmic case the plain
    series up to x = 0.92 and the c +/- eps average past it.  The Gauss
    series of all triples and routes are summed together in one term
    matrix.  The values agree with ``hyp2f1``'s to rounding, and to the last
    bit on x86-64 (see the module docstring).  Raises PoleError and
    ConvergenceError as ``hyp2f1`` does.
    """
    x = np.asarray(x, dtype=float)
    one_minus_x = np.asarray(one_minus_x, dtype=float)
    series: list = []
    plans = [
        _hyp2f1_array_plan(complex(a), complex(b), complex(c), x, one_minus_x, series)
        for a, b, c in triples
    ]
    sums = _gauss_series_array(series) if series else []
    return [build(sums) for build in plans]


def hyp2f1_derivative(a, b, c, z, *, one_minus_z=None) -> complex:
    """d/dz F(a, b; c; z) = (a*b/c) * F(a+1, b+1; c+1; z)."""
    a = complex(a)
    b = complex(b)
    c = complex(c)
    if _is_nonpositive_integer(c):
        raise PoleError(f"2F1 parameter pole: c = {c}")
    return a * b / c * hyp2f1(a + 1, b + 1, c + 1, z, one_minus_z=one_minus_z)


# ---------------------------------------------------------------------------
# Confluent hypergeometric M = 1F1 and Weber parabolic cylinder D
# ---------------------------------------------------------------------------

_M_ASYMPTOTIC_CUTOFF = 20.0
# Off the imaginary axis the Weber-function combination below is recessive:
# the defining series then carries internal cancellation ~e^|z| that plain
# double precision cannot absorb at the required accuracy, so the sum runs
# in numpy extended precision there (80-bit on x86; ~19 digits).  The
# extended route is exact-input arithmetic, so it holds full accuracy out to
# |z^2/2| ~ 26 (|z| ~ 7.2).  Only an argument whose z^2/2 is exactly
# imaginary (real part 0.0) keeps the double path.  The linear-crossing ray
# z = r e^(i pi/4) is not such an argument in floating point: cos(pi/4) and
# sin(pi/4) differ by 1 ulp, so Re(z^2/2) != 0 and the ray takes the
# extended route for 3 < |z^2/2| <= 26.
_M_EXTENDED_CUTOFF = 3.0
_PCF_EXTENDED_MAX = 26.0


def _kummer_series(a: complex, b: complex, z: complex, max_terms: int) -> complex:
    term = 1.0 + 0j
    total = 1.0 + 0j
    small = 0
    for n in range(max_terms):
        term *= (a + n) / ((b + n) * (n + 1)) * z
        total += term
        if abs(term) <= _SERIES_TOL * abs(total):
            small += 1
            if small >= 2:
                return total
        else:
            small = 0
    raise ConvergenceError(
        f"1F1 series did not converge in {max_terms} terms (a={a}, b={b}, z={z})"
    )


def _kummer_series_extended(a, b, z, max_terms: int, first_term=None):
    """Confluent series in extended precision; ``first_term`` pre-scales every
    term (the Weber evaluation passes e^(-z/2) to halve the dynamic range the
    rounding errors live on)."""
    az = np.clongdouble(a)
    bz = np.clongdouble(b)
    zz = np.clongdouble(z)
    term = np.clongdouble(1.0) if first_term is None else np.clongdouble(first_term)
    total = term
    tol = np.longdouble(1e-22)
    small = 0
    for n in range(max_terms):
        term = term * (az + n) / ((bz + n) * (n + 1)) * zz
        total = total + term
        if abs(term) <= tol * abs(total):
            small += 1
            if small >= 2:
                return total
        else:
            small = 0
    raise ConvergenceError(
        f"1F1 series did not converge in {max_terms} terms (a={a}, b={b}, z={z})"
    )


def _needs_extended(z: complex) -> bool:
    return z.real != 0.0 and abs(z) > _M_EXTENDED_CUTOFF


# --- extended-precision kernel for the recessive Weber regime ---------------
#
# The two-term combination in pcf_d cancels by up to many orders of
# magnitude; its inputs must then carry better-than-double accuracy.  numpy's
# longdouble arithmetic is true 80-bit on x86, but its transcendental ufuncs
# round through double on this platform, so exp/sin/cos/log are rebuilt here
# from extended arithmetic (argument reduction + Taylor), and gamma follows
# by argument shifting into |z| >= 16 plus the Stirling series with exact
# Bernoulli coefficients.

_LD = np.longdouble
# pi and log 2 as double + tail, accurate to ~1e-36 before the final rounding
_PI_EXT = _LD(math.pi) + _LD(1.2246467991473532e-16)
_LN2_EXT = _LD(0.6931471805599453) + _LD(2.3190468138462996e-17)


def _exp_ext(x):
    """e^x for real longdouble x (|x| <~ 11000), extended accuracy."""
    x = _LD(x)
    n = int(np.rint(x / _LN2_EXT))
    r = x - n * _LN2_EXT
    # |r| <= 0.35: Taylor to ~1e-22
    term = _LD(1.0)
    total = _LD(1.0)
    for k in range(1, 26):
        term = term * r / k
        total = total + term
        if abs(term) < 1e-24:
            break
    return np.ldexp(total, n)


def _sincos_ext(y):
    """(sin y, cos y) for real longdouble y, extended accuracy."""
    y = _LD(y)
    n = int(np.rint(y / (2 * _PI_EXT)))
    r = y - n * (2 * _PI_EXT)  # |r| <= pi
    r2 = r * r
    s = _LD(0.0)
    c = _LD(0.0)
    ts = r
    tc = _LD(1.0)
    for k in range(30):
        s = s + ts
        c = c + tc
        ts = -ts * r2 / ((2 * k + 2) * (2 * k + 3))
        tc = -tc * r2 / ((2 * k + 1) * (2 * k + 2))
        if abs(ts) < 1e-24 and abs(tc) < 1e-24:
            break
    return s, c


def _cexp_ext(z):
    """e^z for clongdouble z."""
    z = np.clongdouble(z)
    mag = _exp_ext(np.real(z))
    s, c = _sincos_ext(np.imag(z))
    return np.clongdouble(mag * c) + 1j * np.clongdouble(mag * s)


def _clog_ext(z):
    """Principal log for clongdouble z (numpy's real log and arctan2 are
    extended-accurate, unlike its complex ufuncs)."""
    z = np.clongdouble(z)
    re = np.real(z)
    im = np.imag(z)
    return np.clongdouble(0.5 * np.log(re * re + im * im)) + 1j * np.clongdouble(
        np.arctan2(im, re)
    )


def _csin_ext(z):
    z = np.clongdouble(z)
    s, c = _sincos_ext(np.real(z))
    ey = _exp_ext(np.imag(z))
    eym = 1.0 / ey
    return np.clongdouble(s * 0.5 * (ey + eym)) + 1j * np.clongdouble(
        c * 0.5 * (ey - eym)
    )


_STIRLING_SHIFT = 16.0
# B_{2k} / (2k (2k-1)) for k = 1..12, exact integer ratios
_STIRLING_D = tuple(
    _LD(p) / _LD(q)
    for p, q in (
        (1, 12),
        (-1, 360),
        (1, 1260),
        (-1, 1680),
        (1, 1188),
        (-691, 360360),
        (1, 156),
        (-3617, 122400),
        (43867, 244188),
        (-174611, 125400),
        (854513, 63756),
        (-236364091, 1506960),
    )
)


def _gamma_ext(z):
    """Gamma in clongdouble: reflect to Re z >= 1/2, shift into |z| >= 16,
    Stirling series there (truncation ~1e-25)."""
    z = np.clongdouble(z)
    if np.real(z) < 0.5:
        return _PI_EXT / (_csin_ext(_PI_EXT * z) * _gamma_ext(1.0 - z))
    shift = np.clongdouble(1.0)
    while abs(complex(z)) < _STIRLING_SHIFT:
        shift = shift * z
        z = z + 1.0
    rz2 = 1.0 / (z * z)
    series = np.clongdouble(0.0)
    for d in reversed(_STIRLING_D):
        series = (series + d) * rz2
    series = series * z  # sum of d_k z^(1-2k)
    log_gamma = (
        (z - 0.5) * _clog_ext(z) - z + 0.5 * np.log(2.0 * _PI_EXT) + series
    )
    return _cexp_ext(log_gamma) / shift


def _rgamma_ext(z):
    if _is_nonpositive_integer(complex(z)):
        return np.clongdouble(0.0)
    return 1.0 / _gamma_ext(z)


def _m_prescaled_ext(a, b, w, scale_exponent):
    """e^(scale_exponent) * M(a, b, w) in clongdouble.

    The scale folds into the first series term, capping the magnitudes the
    rounding errors ride on; for Re w < 0 the series runs through the Kummer
    transformation M(a,b,w) = e^w M(b-a, b, -w) so its terms never alternate
    against the result.
    """
    if np.real(w) < 0.0:
        first = _cexp_ext(scale_exponent + w)
        return _kummer_series_extended(b - a, b, -w, _MAX_TERMS, first_term=first)
    first = _cexp_ext(scale_exponent)
    return _kummer_series_extended(a, b, w, _MAX_TERMS, first_term=first)


def _pcf_kummer_ext(nu: complex, z: complex) -> complex:
    """Weber D from the two-term Kummer combination, all in extended
    precision with the e^(-z^2/4) prescale folded into the series."""
    nu_e = np.clongdouble(nu)
    z_e = np.clongdouble(z)
    w = 0.5 * z_e * z_e
    m1 = _m_prescaled_ext(-0.5 * nu_e, np.clongdouble(0.5), w, -0.5 * w)
    m2 = _m_prescaled_ext(0.5 * (1.0 - nu_e), np.clongdouble(1.5), w, -0.5 * w)
    sqrt_pi = np.sqrt(_PI_EXT)
    combo = (
        sqrt_pi * _rgamma_ext(0.5 * (1.0 - nu_e)) * m1
        - np.sqrt(_LD(2.0)) * sqrt_pi * z_e * _rgamma_ext(-0.5 * nu_e) * m2
    )
    two_pow = _cexp_ext(0.5 * nu_e * _LN2_EXT)
    return complex(two_pow * combo)


# Gauss-Legendre panels for the integral representation (vectorised, double:
# the representation is cancellation-free, so double relative accuracy of the
# quadrature is relative accuracy of D itself).
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(24)


def _pcf_integral_core(nu: complex, z: complex) -> complex:
    """D_nu(z) from the real-axis integral representation (Re nu < -1, right
    half plane), substituted u = e^s so both tails decay doubly fast:

        D_nu(z) = e^(-z^2/4)/Gamma(-nu) *
                  int e^(-nu s - e^(2s)/2 - z e^s) ds  over the real line
    """
    u_hi = -z.real + math.sqrt(z.real * z.real + 160.0)
    s_hi = math.log(u_hi) + 0.3
    s_lo = -46.0 / min(4.0, max(1.0, -nu.real))
    edges = np.linspace(s_lo, s_hi, max(24, int(2.2 * (s_hi - s_lo))) + 1)
    mids = 0.5 * (edges[1:] + edges[:-1])[:, None]
    half = 0.5 * (edges[1:] - edges[:-1])[:, None]
    s = (mids + half * _GL_NODES[None, :]).ravel()
    wts = (half * _GL_WEIGHTS[None, :]).ravel()
    es = np.exp(s)
    vals = np.exp(-nu * s - 0.5 * es * es - z * es)
    integral = complex(np.dot(wts, vals))
    return cmath.exp(-0.25 * z * z) / cgamma(-nu) * integral


def _pcf_integral(nu: complex, z: complex) -> complex:
    """Integral-representation route with upward order recurrence when Re nu
    is not negative enough for the representation itself."""
    steps = max(0, int(math.ceil(nu.real + 2.0)))
    base = nu - steps
    d_prev = _pcf_integral_core(base - 1.0, z)
    d_curr = _pcf_integral_core(base, z)
    order = base
    for _ in range(steps):
        d_prev, d_curr = d_curr, z * d_curr - order * d_prev
        order = order + 1.0
    return d_curr


def _kummer_asymptotic(a: complex, b: complex, z: complex) -> complex:
    # Large-|z| expansion: M(a,b,z)/Gamma(b) ~ e^z z^(a-b)/Gamma(a) * S1
    #   + e^(sigma*i*pi*a) z^(-a)/Gamma(b-a) * S2,  sigma = sign(Im z).
    # Both sums are optimally truncated (divergent tails).
    def optimal_sum(ratio) -> complex:
        term = 1.0 + 0j
        total = 1.0 + 0j
        prev = abs(term)
        for s in range(60):
            term = term * ratio(s)
            mag = abs(term)
            if mag > prev:  # past the smallest term: stop before divergence
                break
            total += term
            if mag <= 1e-17 * abs(total):
                break
            prev = mag
        return total

    logz = cmath.log(z)
    s1 = optimal_sum(lambda s: (b - a + s) * (1.0 - a + s) / ((s + 1) * z))
    s2 = optimal_sum(lambda s: -(a + s) * (a - b + 1.0 + s) / ((s + 1) * z))
    sigma = 1.0 if z.imag >= 0.0 else -1.0
    e1 = cmath.exp(z + (a - b) * logz) * rgamma(a) * s1
    e2 = cmath.exp(1j * math.pi * a * sigma - a * logz) * rgamma(b - a) * s2
    return cgamma(b) * (e1 + e2)


def kummer_m(a, b, z) -> complex:
    """Confluent hypergeometric M(a, b, z) = 1F1(a; b; z).

    Raises PoleError when b is a nonpositive integer.  Uses the defining
    series for moderate |z| and the large-argument expansion beyond |z| = 20,
    where the series sheds too many digits to cancellation.
    """
    a = complex(a)
    b = complex(b)
    z = complex(z)
    if _is_nonpositive_integer(b):
        raise PoleError(f"1F1 parameter pole: b = {b}")
    if z == 0:
        return 1.0 + 0j
    if _is_nonpositive_integer(a):
        # terminating polynomial: sum it exactly whatever the argument
        n = int(-a.real)
        return _kummer_series(a, b, z, max_terms=n + 3)
    if abs(z) <= _M_ASYMPTOTIC_CUTOFF:
        if _needs_extended(z):
            return complex(_kummer_series_extended(a, b, z, _MAX_TERMS))
        return _kummer_series(a, b, z, max_terms=_MAX_TERMS)
    return _kummer_asymptotic(a, b, z)


def pcf_d(nu, z) -> complex:
    """Weber parabolic cylinder function D_nu(z), complex order and argument.

    Base representation is the two-term Kummer combination

        D_nu(z) = 2^(nu/2) e^(-z^2/4) [ sqrt(pi)/Gamma((1-nu)/2) M(-nu/2, 1/2, z^2/2)
                  - sqrt(2 pi) z / Gamma(-nu/2) M((1-nu)/2, 3/2, z^2/2) ]

    whose reciprocal gamma factors are entire, so no order is special (for
    nonnegative integer nu one term vanishes identically).  Off the imaginary
    z^2-axis the combination is badly cancellation-prone, so the evaluation
    routes by region: the deep recessive right half goes through the
    cancellation-free integral representation (with upward order recurrence),
    the remaining moderate-|z| regions through the combination in extended
    precision, and only arguments with Re(z^2/2) exactly 0.0 stay on the
    double path there.  The linear-crossing ray z = r e^(i pi/4) misses that
    axis by rounding (cos(pi/4) != sin(pi/4) by 1 ulp), so for
    3 < |z^2/2| <= 26 it runs on the extended route.  Full accuracy holds for
    |z| <= ~7 and along the imaginary z^2-axis for any |z|.
    """
    nu = complex(nu)
    z = complex(z)
    w = 0.5 * z * z
    if w.real != 0.0 and _M_EXTENDED_CUTOFF < abs(w) <= _PCF_EXTENDED_MAX:
        if w.real > _M_EXTENDED_CUTOFF:
            # deep recessive right-half regime: the integral representation
            # has no cancellation at all
            return _pcf_integral(nu, z)
        return _pcf_kummer_ext(nu, z)
    t1 = _SQRT_PI * rgamma(0.5 * (1.0 - nu)) * kummer_m(-0.5 * nu, 0.5, w)
    t2 = _SQRT_2PI * z * rgamma(-0.5 * nu) * kummer_m(0.5 * (1.0 - nu), 1.5, w)
    return cmath.exp(0.5 * nu * _LN2 - 0.5 * w) * (t1 - t2)
