"""Differential-operator realization of the planar Euclidean algebra on
cylindrical functions, with a self-contained Bessel evaluator.

The mixed basis functions are e_n = J_n(r) e^{i n phi}; the ladder
operators shift the order by one, which makes every identity in the catalog
a statement the ascending series can check.  Their action on the basis,
:data:`POLAR_OPS`, is banded (``numeric.BandedOp``) with the integer
coefficients -1 and n, so it is exact.  The ascending series itself has
rational coefficients (:func:`bessel_series`), so the action of the polar
operators e^{+-i phi}(+-d/dr + (i/r) d/dphi) on a basis function is checked
against its column exactly, in Q[r] (:func:`ladder_series_residuals`), and
the generating function of catalog A.11 in Q[r, t, e^{i phi}]
(:func:`genfunc_a11_residual`).

The evaluator returns J_n, J_n' and J_n'' with every real and imaginary
part correctly rounded, at any integer order and up to |z| = MAX_ABS_Z,
where naive float accumulation would lose ~10 digits to cancellation.  It
sums the ascending series in fixed point with proven integer bounds on the
error and on the tail, and sums again with twice the bits where a bound
cannot settle a rounding (Ziv's strategy).  That ends: a part that is zero
on the whole real or imaginary axis is summed exactly, and every other part
is, for z != 0, a nonzero transcendental number (Siegel 1929), so it is
neither a float nor a rounding boundary.  There are two passes: real z
carries one integer per term, and any other z a Gaussian integer.  On the
real line the Gaussian pass's imaginary parts are zero throughout, so the
two agree bit for bit (:func:`_pass`).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from types import MappingProxyType

from .numeric import (X, Y, Z, BandedOp, Polynomial, _as_complex,
                      _check_order, _sum_of_products, _worst)

#: largest |z| the evaluator accepts
MAX_ABS_Z = 30.0

#: the (n, r) envelope of verify_bessel_identity
IDENTITY_MAX_ORDER = 10
IDENTITY_MIN_R = 0.1
IDENTITY_MAX_R = 20.0


# ---------------------------------------------------------------------------
# Bessel evaluator
# ---------------------------------------------------------------------------

#: bits of the first pass beyond a float's 53 and the cancellation
_GUARD_BITS = 48
#: a pass stops at a term whose bound is below this many units
_TAIL_UNITS = 1 << 32
#: (J_n, J_n', J_n'') at z = 0 for the orders where one is nonzero
_AT_ZERO = {0: (1 + 0j, 0j, -0.5 + 0j),
            1: (0j, 0.5 + 0j, 0j), -1: (0j, -0.5 + 0j, 0j),
            2: (0j, 0j, 0.25 + 0j), -2: (0j, 0j, 0.25 + 0j)}


def _dyadic(z: complex) -> tuple[int, int, int]:
    """(a, b, q) with z/2 = (a + ib) / 2^q and q >= 1: both parts of a
    float are dyadic rationals, put over one power of two."""
    (ar, er), (ai, ei) = z.real.as_integer_ratio(), z.imag.as_integer_ratio()
    den = max(er, ei)
    return ar * (den // er), ai * (den // ei), den.bit_length()


def _rounded(num: int, err: int, d: int) -> float | None:
    """num / d correctly rounded, where num is known to within err; None
    when the error interval reaches across a rounding boundary or the sign
    of a zero.  Both passes round every part through here."""
    lo, hi = (num - err) / d, (num + err) / d
    if lo != hi or math.copysign(1.0, lo) != math.copysign(1.0, hi):
        return None
    return lo


def _pass(n: int, z: complex,
          frac: int) -> tuple[complex, complex, complex] | None:
    """(J_n, J_n', J_n'') at z != 0 from one pass with ``frac`` fractional
    bits, or None where its bounds cannot settle a rounding.

    With w = z/2 = W / 2^q, tau_k = prod_{j<=k} (-w^2) / (j (n+j)) and
    m = n + 2k, term k of J_n, J_n' and J_n'' is w^n / n! * tau_k times 1,
    m/z and m(m-1)/z^2.  So one Gaussian integer X_k ~ 2^frac tau_k,
    floored at each step, feeds the sums of X_k, m X_k and m(m-1) X_k, and
    err_k >= |X_k - 2^frac tau_k| grows by the step's factor and the floor's
    2.  The pass stops at the first k with t = |Re X_k| + |Im X_k| + err_k
    < _TAIL_UNITS and 2 |W|^2 (m+2)(m+1) <= k (n+k) m(m-1) 2^{2q}: both
    sides only grow apart with k, so from there each weighted term is at
    most half the one before, and each sum's tail is at most t times term
    k's weight.  As the weights grow with k, the error of each sum is at
    most its weight at k times sum_k err_k + t.

    Real z (Im z == 0, so W = a is an integer) takes :func:`_real_pass`,
    which carries one integer X_k; any other z takes :func:`_gaussian_pass`,
    which carries a Gaussian integer.  At b = 0 the Gaussian pass's
    imaginary parts are 0 from k = 0 on, so the two compute the same
    integers, errors and stop index, and round the same numerators through
    :func:`_rounded`: their outputs agree bit for bit.
    """
    a, b, q = _dyadic(z)
    if b == 0:
        return _real_pass(n, a, q, frac)
    return _gaussian_pass(n, a, b, q, frac)


def _real_pass(n: int, a: int, q: int,
               frac: int) -> tuple[complex, complex, complex] | None:
    """:func:`_pass` at z = a / 2^{q-1}: X_k, its sums and W^n are integers,
    and every imaginary part is an exact +0.0."""
    sign = -1 if n < 0 and n % 2 else 1       # J_{-n} = (-1)^n J_n
    n = abs(n)
    norm = a * a                                      # W^2 = |W|^2
    shift = 2 * q
    x = 1 << frac
    s0, s1, s2 = x, n * x, n * (n - 1) * x
    err = errs = k = 0
    while True:
        k += 1
        c = k * (n + k)
        x = (-(x * norm) >> shift) // c
        err = 2 - ((-(err * norm) >> shift) // c)
        errs += err
        m = n + 2 * k
        mm = m * (m - 1)
        s0 += x
        s1 += m * x
        s2 += mm * x
        t = abs(x) + err
        if (t < _TAIL_UNITS
                and 2 * norm * (m + 2) * (m + 1) <= (c * mm) << shift):
            errs += t
            break

    v = sign * a ** n
    d = math.factorial(n) << (q * n + frac)
    values = []
    for s, es in ((s0, errs), (s1, m * errs), (s2, mm * errs)):
        value = _rounded(v * s, abs(v) * es, d)
        if value is None:
            return None
        values.append(complex(value, 0.0))
        v = v * a << (q - 1)
        d *= norm
    return tuple(values)


def _gaussian_pass(n: int, a: int, b: int, q: int,
                   frac: int) -> tuple[complex, complex, complex] | None:
    """:func:`_pass` at z = (a + ib) / 2^{q-1}, on Gaussian integers X_k.
    When W^2 is real (a or b is 0), so are every X_k and its error, which
    keeps the zeros of real and imaginary z exact."""
    sign = -1 if n < 0 and n % 2 else 1       # J_{-n} = (-1)^n J_n
    n = abs(n)
    norm = a * a + b * b                              # |W|^2
    w2r, w2i = a * a - b * b, 2 * a * b               # W^2
    shift = 2 * q
    xr, xi = 1 << frac, 0
    s0r, s1r, s2r = xr, n * xr, n * (n - 1) * xr
    s0i = s1i = s2i = 0
    err = errs = k = 0
    while True:
        k += 1
        # tau gains the factor -W^2 / (k (n+k) 2^{2q}); both floors
        # round toward -inf, so they compose into one
        c = k * (n + k)
        xr, xi = ((-(xr * w2r - xi * w2i) >> shift) // c,
                  (-(xr * w2i + xi * w2r) >> shift) // c)
        err = 2 - ((-(err * norm) >> shift) // c)
        errs += err
        m = n + 2 * k
        mm = m * (m - 1)
        s0r += xr
        s0i += xi
        s1r += m * xr
        s1i += m * xi
        s2r += mm * xr
        s2i += mm * xi
        t = abs(xr) + abs(xi) + err
        if (t < _TAIL_UNITS
                and 2 * norm * (m + 2) * (m + 1) <= (c * mm) << shift):
            errs += t
            break

    # the prefactors over 2^{qn+frac} n!: W^n for J_n, and each
    # derivative one more factor 2^{q-1} conj(W) / |W|^2 = 1/z; the
    # imaginary parts of s are exact when W^2 is real
    vr, vi = sign, 0
    for _ in range(n):
        vr, vi = vr * a - vi * b, vr * b + vi * a
    d = math.factorial(n) << (q * n + frac)
    values = []
    for sr, si, es in ((s0r, s0i, errs), (s1r, s1i, m * errs),
                       (s2r, s2i, mm * errs)):
        ei = es if w2i else 0
        real = _rounded(vr * sr - vi * si, abs(vr) * es + abs(vi) * ei, d)
        if real is None:
            return None
        imag = _rounded(vr * si + vi * sr, abs(vi) * es + abs(vr) * ei, d)
        if imag is None:
            return None
        values.append(complex(real, imag))
        vr, vi = (vr * a + vi * b) << (q - 1), (vi * a - vr * b) << (q - 1)
        d *= norm
    return tuple(values)


def _series(n: int, z: complex,
            widen: int = 1) -> tuple[complex, complex, complex]:
    """(J_n, J_n', J_n'') at z, each part correctly rounded.  The first
    pass has ``widen`` times 53 + _GUARD_BITS + |z| log2(e) fractional bits,
    the last term for the cancellation (sum_k |tau_k| <= e^|z|); a pass that
    cannot settle a rounding is followed by one with twice the bits.  Its
    ``widen=2`` reader, an exact report record, expects bit identity."""
    if not z:
        return _AT_ZERO.get(n, (0j, 0j, 0j))
    frac = widen * (53 + _GUARD_BITS + math.ceil(abs(z) * math.log2(math.e)))
    while True:
        values = _pass(n, z, frac)
        if values is not None:
            return values
        frac *= 2


class BesselEval:
    """Ascending-series evaluator for integer-order Bessel functions.

    :meth:`derivatives` returns J_n, J_n' and J_n'' at |z| <= MAX_ABS_Z,
    every real and imaginary part correctly rounded, an exact zero as +0.0
    (see :func:`_pass` for the tail bound).  A real z (Im z == 0, -0.0
    included) is summed in integers, any other z in Gaussian integers; on
    the real line both give the same bits (:func:`_pass`).  z must be a
    number (``TypeError`` for a str or a bool).  Every integer order is
    accepted.  The derivatives come from differentiating the series term by
    term, independent of the ladder identities they are used to check.
    Values are cached per (n, z).  The package shares one instance,
    :data:`BESSEL`: each part is correctly rounded from (n, z) alone, so a
    value cached for one check is bit for bit what a fresh instance would
    give another.  Its cache grows for the life of the process.
    """

    def __init__(self):
        self._cache: dict = {}

    # -- public surface ----------------------------------------------------

    def j(self, n: int, z: complex) -> complex:
        """J_n(z)."""
        return self.derivatives(n, z)[0]

    def derivatives(self, n: int, z: complex) -> tuple[complex, complex, complex]:
        """(J_n, J_n', J_n'') at z, each part correctly rounded."""
        _check_order(n, None, "n")  # before the cache, where True is 1
        z = _as_complex(z)
        if not abs(z) <= MAX_ABS_Z:     # NaN fails this test too
            raise ValueError(f"|z| = {abs(z):.3g} is not at most {MAX_ABS_Z}")
        key = (n, z)
        if key not in self._cache:
            self._cache[key] = _series(n, z)
        return self._cache[key]


#: the package's evaluator; read its methods at each call, so patches apply
BESSEL = BesselEval()


def bessel_series(n: int, degree: int) -> Polynomial:
    """J_n(r) as a polynomial in x = r, exactly, through the power
    ``degree``: sum_j (-1)^j r^(n+2j) / (2^(n+2j) j! (n+j)!) for n >= 0, and
    J_{-n} = (-1)^n J_n (DLMF 10.2.2, 10.4.1).  The terms j <= k go over
    the last one's denominator 2^(n+2k) k! (n+k)!, on which term j - 1 is
    term j times -4 j (n+j): one pass in ints."""
    _check_order(n, None, "n")
    _check_order(degree, None, "degree")
    sign = -1 if n < 0 and n % 2 else 1
    n = abs(n)
    k = (degree - n) // 2
    if k < 0:
        return Polynomial.zero()
    nums, num = {}, sign * (-1) ** k
    for j in range(k, -1, -1):
        nums[(n + 2 * j, 0, 0)] = num
        num *= -4 * j * (n + j)
    return Polynomial._make(
        nums, math.factorial(k) * math.factorial(n + k) << (n + 2 * k))


def _through(p: Polynomial, degree: int) -> Polynomial:
    """The terms of ``p`` whose power of x = r is at most ``degree``.

    A relation between truncations of Bessel series is checked with every
    series cut after the same number of terms, and a product with a power
    of r cut back to ``degree`` with this: a factor of a truncation that
    depends on where it is cut (as (-1)^k times the series of I_n) is then
    common to both sides, and cannot cancel a sign of the relation.
    """
    return Polynomial._make(
        {e: n for e, n in p._nums.items() if e[0] <= degree}, p._den)


def find_j0_root() -> float:
    """Root of J_0 on the bracket [2, 3], by bisection to a width of 1e-13,
    using the same series it tests."""
    lo, hi = 2.0, 3.0
    f_lo = BESSEL.j(0, lo).real
    if f_lo * BESSEL.j(0, hi).real > 0:
        raise ValueError("no sign change on the bracket")
    while hi - lo > 1e-13:
        mid = 0.5 * (lo + hi)
        f_mid = BESSEL.j(0, mid).real
        if f_lo * f_mid <= 0:
            hi = mid
        else:
            lo, f_lo = mid, f_mid
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# ladder action
# ---------------------------------------------------------------------------

#: the polar operators on e_n = J_n(r) e^{i n phi}: raising and lowering
#: send e_n to -e_{n+1} and -e_{n-1}, and the rotation generator L_z scales
#: e_n by its order
POLAR_OPS = MappingProxyType({
    "raise": BandedOp({1: lambda n: -1}),
    "lower": BandedOp({-1: lambda n: -1}),
    "lz": BandedOp({0: lambda n: n}),
})


def ladder_series_residuals(op: str, n: int, degree: int) -> list:
    """The operator e^{i s phi}(s d/dr + (i/r) d/dphi), s = 1 for "raise"
    and -1 for "lower", takes J_n e^{i n phi} to (s J_n' - n J_n / r)
    e^{i (n+s) phi}.  Returns, times r and in Q[r] through the power
    ``degree``, that coefficient minus the one of column n of
    ``POLAR_OPS[op]`` at each order either has: all zero exactly when the
    column is the operator's action.  Each J_m of the column is cut after
    as many terms as J_n, j <= k = (degree - |n|) // 2, and r J_m back to
    ``degree`` (:func:`_through`)."""
    if op not in ("raise", "lower"):
        raise ValueError("the series check applies to raise and lower")
    s = 1 if op == "raise" else -1
    j = bessel_series(n, degree)
    lhs = s * X * j.differentiate("x") - n * j
    image = POLAR_OPS[op].column(n)
    top = 2 * ((degree - abs(n)) // 2)
    return [(lhs if m == n + s else 0) - image.get(m, 0)
            * _through(X * bessel_series(m, abs(m) + top), degree)
            for m in image.keys() | {n + s}]


# ---------------------------------------------------------------------------
# identity residuals
# ---------------------------------------------------------------------------

BESSEL_IDENTITIES = ("ode_A6", "recursion_A7", "diffrel_A8",
                     "diffrel_A9", "diffrel_A10")


def verify_bessel_identity(which: str, n: int, r: float) -> float:
    """Absolute residual of one cataloged Bessel identity at (n, r)."""
    if not IDENTITY_MIN_R <= r <= IDENTITY_MAX_R:
        raise ValueError(f"r outside [{IDENTITY_MIN_R}, {IDENTITY_MAX_R}]")
    if abs(n) > IDENTITY_MAX_ORDER:
        raise ValueError(f"|n| above {IDENTITY_MAX_ORDER}")
    j, jp, jpp = (v.real for v in BESSEL.derivatives(n, r))
    j_down = BESSEL.j(n - 1, r).real
    j_up = BESSEL.j(n + 1, r).real
    if which == "ode_A6":
        return abs(jpp + jp / r + (1 - n * n / (r * r)) * j)
    if which == "recursion_A7":
        return abs(2 * n / r * j - j_down - j_up)
    if which == "diffrel_A8":
        return abs(jp - n / r * j + j_up)
    if which == "diffrel_A9":
        return abs(-jp - n / r * j + j_down)
    if which == "diffrel_A10":
        return abs(2 * jp - j_down + j_up)
    raise ValueError(f"unknown identity {which!r}")


# ---------------------------------------------------------------------------
# generating functions
# ---------------------------------------------------------------------------

def genfunc_a11_residual(n: int, t_degree: int) -> Polynomial:
    """Residual of the raising-exponential generating identity (catalog
    A.11) in Q[r, t, w], x = r, y = t, z = w = e^{i phi}, through t^J for
    J = ``t_degree``.  ``n`` and ``t_degree`` are checked by
    :func:`numeric._check_order`.

    The right side expands exp(t * raising) across the discrete basis, in
    the normalization where raising acts as -1 on a basis function.  The
    same group element realized as a shift of the plane sends the argument
    to u = sqrt(r^2 + 2 t r e^{i phi}) and scales the radial part by
    (r/u)^n, because the angular factor (x + iy)^n is invariant under that
    shift:

        e^{i n phi} (r/u)^n J_n(u)
            = sum_m (-1)^m t^m / m! e^{i(n+m) phi} J_{n+m}(r)

    (DLMF 10.23.1).  The left side, (r w/2)^n sum_j (-u^2/4)^j/(j! (n+j)!),
    is a polynomial in u^2: its terms j <= J are the right side's m <= J
    with J_{n+m} through r^(n+2J-m) (:func:`bessel_series`), so the
    residual is identically zero.

    A widespread looser rendering of this identity drops the radial
    prefactor and carries the shift parameter in the other ladder
    normalization (t -> it, radicand r^2 + 2t(ix - y)); that variant does
    not hold as an identity and is only recorded, by
    :func:`genfunc_a11_literal_diagnostic`.
    """
    _check_order(n, name="n")
    _check_order(t_degree, name="t_degree")
    u2 = X * X + 2 * X * Y * Z
    # each side is one sum of products, normalized once
    lhs_terms, power = [], (X * Z) ** n
    for j in range(t_degree + 1):
        den = math.factorial(j) * math.factorial(n + j) << (n + 2 * j)
        scale = Polynomial.constant(Fraction((-1) ** j, den))
        lhs_terms.append((scale, power))
        power = power * u2
    lhs = _sum_of_products(lhs_terms)
    rhs_terms = []
    for m in range(t_degree + 1):
        # (-t)^m / m! w^(n+m)
        ladder = Polynomial(("y", "z"), {(m, n + m): Fraction(
            (-1) ** m, math.factorial(m))})
        rhs_terms.append((ladder, bessel_series(n + m, n + 2 * t_degree - m)))
    rhs = _sum_of_products(rhs_terms)
    return lhs - rhs


def _principal_root(radicand: complex) -> complex:
    """The principal root of a radicand in the open right half-plane, a
    quarter turn from the branch cut (``ValueError`` outside it)."""
    if radicand.real <= 0:
        raise ValueError(f"radicand {radicand} leaves the right half-plane")
    return cmath.sqrt(radicand)


def _a11_closed_form(n: int, r: float, phi: float, t: complex) -> complex:
    """e^{i n phi} (r/u)^n J_n(u), u = sqrt(r^2 + 2 t r e^{i phi}) (principal
    root): the sum of the ladder expansion of A.11 (its terms are checked by
    :func:`genfunc_a11_residual`), which the diagnostics compare against."""
    if abs(t) > 0.5 or not 0.5 <= r <= 10:
        raise ValueError("|t| above 0.5 or r outside [0.5, 10]")
    u = _principal_root(r * r + 2 * t * r * cmath.exp(1j * phi))
    return cmath.exp(1j * n * phi) * (r / u) ** n * BESSEL.j(n, u)


def genfunc_a11_literal_diagnostic(n: int, r: float, phi: float,
                                   t: complex) -> float:
    """Recorded-only residual of the loose rendering of catalog entry A.11,
    e^{i n phi} J_n(sqrt(r^2 + 2t(ix - y))) with x = r cos phi,
    y = r sin phi, against the closed form of the ladder expansion
    (:func:`_a11_closed_form`).  Never gated.
    """
    rhs = _a11_closed_form(n, r, phi, t)
    x = r * math.cos(phi)
    y = r * math.sin(phi)
    u = _principal_root(r * r + 2 * t * (1j * x - y))
    lhs = cmath.exp(1j * n * phi) * BESSEL.j(n, u)
    return abs(lhs - rhs)


def genfunc_a12_diagnostic(n: int, r: float, phi: float, t: float) -> dict:
    """Diagnostic for the scaled-shift identity (catalog entry A.12), which
    is reported but never gated.

    Two candidate left sides are evaluated against the closed form of the
    ladder expansion (:func:`_a11_closed_form`): the identity exactly as
    cataloged,
    exp(r phi / sqrt(2 r phi t + r^2)) * J_n(sqrt(2 r phi t + r^2)), and the
    flow-substitution reading e^{i n phi(t)} J_n(r(t)) with the closed forms
    r(t) = sqrt(2 r phi t + r^2) and phi(t) = r phi / r(t), computed here
    (the forms :func:`flow_solve` compares its endpoint with; no flow is
    integrated).  Both residuals are returned; no threshold is asserted.
    """
    t = float(t)
    rhs = _a11_closed_form(n, r, phi, t)
    radicand = 2 * r * phi * t + r * r
    if radicand <= 0:
        raise ValueError(f"radicand {radicand} not positive")
    scaled_r = math.sqrt(radicand)
    scaled_phi = r * phi / scaled_r
    j_n = BESSEL.j(n, scaled_r)
    catalog = math.exp(scaled_phi) * j_n
    substituted = cmath.exp(1j * n * scaled_phi) * j_n
    return {
        "residual_catalog_form": abs(catalog - rhs),
        "residual_substituted_form": abs(substituted - rhs),
    }


# ---------------------------------------------------------------------------
# flow of the raising group element
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FlowResult:
    r_discrepancy: float
    phi_discrepancy: float
    q_drift: float
    integrator_error: float


#: fewest integration steps flow_solve takes
MIN_FLOW_STEPS = 1

_SINGULARITY = "flow reached the coordinate singularity r = 0"


def flow_solve(r0: float, phi0: float, t_end: float,
               steps: int) -> FlowResult:
    """Integrate dr/dt = e^{i phi}, dphi/dt = i e^{i phi} / r, dq/dt = 0 with
    the classical fourth-order scheme at fixed step, and report the endpoint
    against the closed forms r(t) = sqrt(2 r0 phi0 t + r0^2),
    phi(t) = r0 phi0 / r(t).

    The discrepancy between the two is recorded, never asserted: the closed
    forms are real while the flow itself is genuinely complex.  As a check
    on the integrator itself, ``integrator_error`` compares the endpoint
    with the solution that really does satisfy the system,
    r(t) = sqrt(r0^2 + 2 t r0 e^{i phi0}),  phi(t) = phi0 + i log(r(t)/r0),
    which is exact to the integrator's own order.

    The report's step count (``SuiteConfig.flow_steps``) sits at the
    scheme's accuracy floor.  Truncation error falls like h^4 while rounding
    error grows with the step count, and at r0 = 2, phi0 = 0.5, t = 0.3
    ``integrator_error`` reads

    ======  =======  =======  =======  =======  =======  =======
    steps   100      200      500      1,000    5,000    10,000
    error   4.0e-14  2.3e-15  1.3e-15  3.1e-15  6.2e-15  8.9e-15
    ======  =======  =======  =======  =======  =======  =======

    From 200 steps on, what is left is rounding.  At 1,000 steps truncation
    is ~4e-18 (the 100-step value over 10^4), about three orders below that
    rounding; 500 steps would save only ~0.7 ms more and narrow the margin,
    and 10,000 steps spend ten times the work to reach a larger error.
    """
    if r0 <= 0:
        raise ValueError("r0 must be positive")
    if phi0 == 0:
        raise ValueError("phi0 must be nonzero")
    _check_order(steps, MIN_FLOW_STEPS, "steps")

    # the four stages inline, in the scheme's own float operations and
    # order; each stage state is checked against the singularity
    h = t_end / steps
    half, sixth = h / 2, h / 6
    exp = cmath.exp
    r, phi = complex(r0), complex(phi0)
    q = complex(1.0)
    for _ in range(steps):
        if abs(r) < 1e-6:
            raise ArithmeticError(_SINGULARITY)
        e1 = exp(1j * phi)
        f1 = 1j * e1 / r
        r2 = r + half * e1
        if abs(r2) < 1e-6:
            raise ArithmeticError(_SINGULARITY)
        e2 = exp(1j * (phi + half * f1))
        f2 = 1j * e2 / r2
        r3 = r + half * e2
        if abs(r3) < 1e-6:
            raise ArithmeticError(_SINGULARITY)
        e3 = exp(1j * (phi + half * f2))
        f3 = 1j * e3 / r3
        r4 = r + h * e3
        if abs(r4) < 1e-6:
            raise ArithmeticError(_SINGULARITY)
        e4 = exp(1j * (phi + h * f3))
        f4 = 1j * e4 / r4
        r += sixth * (e1 + 2 * e2 + 2 * e3 + e4)
        phi += sixth * (f1 + 2 * f2 + 2 * f3 + f4)
        # dq/dt = 0: the increment is identically zero

    radicand = 2 * r0 * phi0 * t_end + r0 * r0
    if radicand <= 0:
        raise ArithmeticError("closed forms undefined: radicand not positive")
    cf_r = math.sqrt(radicand)
    cf_phi = r0 * phi0 / cf_r
    true_r = cmath.sqrt(r0 * r0 + 2 * t_end * r0 * cmath.exp(1j * phi0))
    true_phi = phi0 + 1j * cmath.log(true_r / r0)
    return FlowResult(
        r_discrepancy=abs(r - cf_r),
        phi_discrepancy=abs(phi - cf_phi),
        q_drift=abs(q - 1.0),
        integrator_error=_worst(abs(r - true_r), abs(phi - true_phi)),
    )
