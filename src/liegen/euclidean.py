"""Differential-operator realization of the planar Euclidean algebra on
cylindrical functions, with a self-contained Bessel evaluator.

The mixed basis functions are J_n(r) e^{i n phi}; finite spans of them are
closed under the ladder operators, which makes every identity in the catalog
a statement the ascending series can check numerically.  A span
(``CylFunc``) holds Gaussian-rational coefficients and the ladder
coefficients are the integers +-1 and n, so the ladder action on a span is
exact: its identities are checked as exact zeros, and floats enter only when
a span is evaluated.

The evaluator returns the ascending series as if summed exactly: each
emitted value is the exact partial sum, correctly rounded, with the
stopping index the float rule picks on the exact terms.  It gets there by a
short fixed-point sum (~100-150 bits, growing with |z| for the
cancellation) that carries a proven integer bound on its error, as in
Ziv's strategy: where the bounds settle every stop test and leave each
output's error interval inside one float's rounding cell, the exact partial
sum rounds to that same float, so the answer is the exact one.  Otherwise,
at z = 0, at leading terms near underflow or where a value sits on a
rounding boundary (in the default report only J_0 within a few ulp of its
root), the series is summed exactly in plain integers: the parts of a float
argument are dyadic rationals, so every term is a Gaussian integer over one
shared denominator, and each value is one correctly rounded integer
division.  Naive float accumulation would lose ~10 digits to cancellation
near |z| = MAX_ABS_Z; here the emitted value carries only the final
rounding, at any integer order, so identity residuals sit at machine level
up to |z| = MAX_ABS_Z.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping

from .errors import BranchAmbiguityError, EnvelopeError
from .numeric import Scalar, _as_fraction, ensure_finite

#: the series stops once every new term is below this fraction of its sum
REL_TOL = 1e-16
#: largest |z| the evaluator accepts
MAX_ABS_Z = 30.0

#: the (n, r) envelope of verify_bessel_identity
IDENTITY_MAX_ORDER = 10
IDENTITY_MIN_R = 0.1
IDENTITY_MAX_R = 20.0


# ---------------------------------------------------------------------------
# stopping rule
# ---------------------------------------------------------------------------

_TOL2 = REL_TOL * REL_TOL


def _negligible(tr: int, ti: int, sr: int, si: int, d: int) -> bool:
    """Whether the term t = (tr + i ti) / d is negligible against the partial
    sum S = (sr + i si) / d: |t|^2 rounds to 0.0, or below REL_TOL^2 times
    |S|^2, each square being rounded once to a float."""
    dd = d * d
    t_mag = (tr * tr + ti * ti) / dd
    return t_mag == 0.0 or t_mag < _TOL2 * ((sr * sr + si * si) / dd)


# ---------------------------------------------------------------------------
# fixed-point bounds
# ---------------------------------------------------------------------------

#: bits of the fixed-point sum beyond a float's 53 and the cancellation
_GUARD_BITS = 48
#: relative distance from the stopping threshold that the bounds must keep,
#: far above the three roundings of the float rule
_STOP_MARGIN = 2.0 ** -40
_TOL2_ABOVE = _TOL2 * (1 + _STOP_MARGIN)
_TOL2_BELOW = _TOL2 * (1 - _STOP_MARGIN)
#: factors that widen a bound by more than the few roundings of the float
#: operations that compute it
_UP = 1 + 2.0 ** -48
_DOWN = 1 - 2.0 ** -48
#: log2 of the smallest term or sum whose stop test the bounds decide: the
#: squares, and REL_TOL^2 times them, are then normal floats
_MIN_LOG2 = -440


def _dyadic(z: complex) -> tuple[int, int, int]:
    """(a, b, q) with z/2 = (a + ib) / 2^q and q >= 1: both parts of a
    float are dyadic rationals, put over one power of two."""
    (ar, er), (ai, ei) = z.real.as_integer_ratio(), z.imag.as_integer_ratio()
    den = max(er, ei)
    return ar * (den // er), ai * (den // ei), den.bit_length()


def _negligible_bound(t: float, t_err: int, sr: int, si: int, s_err: int,
                      floor: float) -> bool | None:
    """The float rule of :func:`_negligible` for a term of modulus t and a
    sum sr + i si, known to within t_err and s_err, all in one unit: True
    or False where the bounds decide it, None where they do not.  Both
    outcomes are decided only for magnitudes of at least ``floor``, the
    unit's value of 2^_MIN_LOG2."""
    s = math.hypot(sr, si)
    t_lo = t * _DOWN - t_err * _UP
    s_hi = (s + s_err) * _UP
    if t_lo >= floor and t_lo * t_lo > _TOL2_ABOVE * (s_hi * s_hi):
        return False
    t_hi = (t + t_err) * _UP
    s_lo = s * _DOWN - s_err * _UP
    if s_lo >= floor and t_hi * t_hi < _TOL2_BELOW * (s_lo * s_lo):
        return True
    return None


def _rounded(vr: int, vi: int, sr: int, si: int, er: int, ei: int,
             d: int) -> complex | None:
    """(vr + i vi)(sr + i si) / d, each part correctly rounded, where the
    parts of s are known to within er and ei; None when an error interval
    reaches across a rounding boundary or the sign of a zero."""
    parts = []
    for num, err in ((vr * sr - vi * si, abs(vr) * er + abs(vi) * ei),
                     (vr * si + vi * sr, abs(vi) * er + abs(vr) * ei)):
        lo, hi = (num - err) / d, (num + err) / d
        if lo != hi or math.copysign(1.0, lo) != math.copysign(1.0, hi):
            return None
        parts.append(lo)
    return complex(*parts)


# ---------------------------------------------------------------------------
# Bessel evaluator
# ---------------------------------------------------------------------------

class BesselEval:
    """Ascending-series evaluator for integer-order Bessel functions.

    With z/2 = W / 2^q (W a Gaussian integer), term k of J_n, J_n' and
    J_n'' has the integer numerators (-1)^k W^m, (-1)^k m 2^{q-1} W^{m-1}
    and (-1)^k m(m-1) 2^{2q-2} W^{m-2} over D = 2^{qm} k! (n+k)!, where
    m = n + 2k.  The values are those of the three partial sums taken
    exactly over that one D and each rounded once, by an integer division,
    when the sum stops.  The stopping rule is the relative tolerance
    :data:`REL_TOL` on the rounded squared magnitudes, with at least ``n``
    terms taken, and at most ``max_terms`` more.  A fixed-point sum with
    proven error bounds (:meth:`_series_fixed`) finds the same stopping
    index and the same roundings wherever its bounds decide them, which is
    nearly everywhere; the exact sum (:meth:`_series_exact`) runs where
    they do not and is the reference, so no input's output depends on
    which of the two ran.  Every integer order is accepted: exact
    summation rounds once, whatever the order.  Negative orders are
    defined by the reflection J_{-n} = (-1)^n J_n.
    First and second derivatives come from differentiating the series term
    by term, independent of the ladder identities they are used to check.
    """

    def __init__(self, max_terms: int = 200):
        if max_terms < 1:
            raise ValueError("max_terms must be positive")
        self.max_terms = max_terms
        self._cache: dict = {}

    # -- public surface ----------------------------------------------------

    def j(self, n: int, z: complex) -> complex:
        """J_n(z)."""
        return self.derivatives(n, z)[0]

    def derivatives(self, n: int, z: complex) -> tuple[complex, complex, complex]:
        """(J_n, J_n', J_n'') at z: the series values as summed, negated
        only for odd negative n, so every signed zero is kept."""
        z = complex(z)
        if not abs(z) <= MAX_ABS_Z:     # NaN fails this test too
            raise EnvelopeError(f"|z| = {abs(z):.3g} is not at most {MAX_ABS_Z}")
        key = (abs(n), z)
        if key not in self._cache:
            self._cache[key] = self._series(*key)
        values = self._cache[key]
        if n < 0 and n % 2:
            return tuple(-v for v in values)
        return values

    # -- series core ---------------------------------------------------------

    def _series(self, n: int, z: complex) -> tuple[complex, complex, complex]:
        """The series values: from the fixed-point sum where its bounds
        decide every stop test and rounding, from the exact sum otherwise."""
        return self._series_fixed(n, z) or self._series_exact(n, z)

    def _series_fixed(self, n: int,
                      z: complex) -> tuple[complex, complex, complex] | None:
        """The values of :meth:`_series_exact`, from a fixed-point sum with
        proven error bounds, or None where the bounds cannot decide a stop
        test or a rounding.

        With w = z/2 = W / 2^q and tau_k = prod_{j<=k} (-w^2) / (j (n+j)),
        term k of J_n is w^n / n! * tau_k, and its terms of J_n' and J_n''
        are the same times m/z and m(m-1)/z^2, m = n + 2k.  So one Gaussian
        integer X_k ~ 2^frac tau_k, floored at each step, feeds three sums:
        sum X_k, sum m X_k and sum m(m-1) X_k.  An integer err bounds
        |X_k - 2^frac tau_k|: the step multiplies it by |W|^2 / (k (n+k)
        2^{2q}) and the floor adds less than 2.  As sum |tau_k| <= e^|z|,
        frac = 53 + guard bits + |z| log2(e) bits cover the cancellation.
        When W^2 is real, so are every X_k and its error, which keeps the
        imaginary zeros of the exact sum exact.

        The stop tests of the exact sum compare term and sum of each series
        by ratio, in which w^n / n! cancels; they are decided here where
        the bounds clear the threshold by :data:`_STOP_MARGIN`, at
        magnitudes whose squares stay clear of the subnormals.  At the end
        each value is the exact prefactor times its sum, and a part is
        accepted when both ends of its error interval round to the same
        float, so the value of the exact sum rounds to that float too.
        """
        a, b, q = _dyadic(z)
        norm = a * a + b * b                              # |W|^2
        if not norm:
            return None
        log2_w = math.log2(norm) / 2 - q                  # log2 |z/2|
        log2_lead = n * log2_w - math.lgamma(n + 1) / math.log(2)
        if log2_lead < _MIN_LOG2:                         # |w^n / n!|
            return None
        frac = 53 + _GUARD_BITS + math.ceil(abs(z) * math.log2(math.e))
        # series j has the prefactor w^n / n! / (2w)^j: its terms and sums
        # are at least 2^_MIN_LOG2 in size when X-scaled they reach floor j
        floors = [2.0 ** (frac + _MIN_LOG2 + 1 - log2_lead + j * (1 + log2_w))
                  for j in range(3)]

        w2r, w2i = a * a - b * b, 2 * a * b               # W^2
        shift = 2 * q
        xr, xi = 1 << frac, 0
        err = 0
        m, mm = n, n * (n - 1)
        s0r, s1r, s2r = xr, m * xr, mm * xr
        s0i = s1i = s2i = 0
        e0 = e1 = e2 = 0
        k = 0
        while True:
            if k + 1 >= max(n, 2):
                # series 0 alone decides all but the last few steps
                t = math.hypot(xr, xi)
                verdicts = [_negligible_bound(t, err, s0r, s0i, e0, floors[0])]
                if verdicts[0] is not False:
                    verdicts += [
                        _negligible_bound(m * t, m * err, s1r, s1i, e1, floors[1]),
                        _negligible_bound(mm * t, mm * err, s2r, s2i, e2, floors[2])]
                    if False not in verdicts:
                        if None in verdicts:
                            return None
                        break
            k += 1
            if k >= n + self.max_terms:
                return None
            # tau gains the factor -W^2 / (k (n+k) 2^{2q}); both floors
            # round toward -inf, so they compose into one
            c = k * (n + k)
            xr, xi = ((-(xr * w2r - xi * w2i) >> shift) // c,
                      (-(xr * w2i + xi * w2r) >> shift) // c)
            err = 2 - ((-(err * norm) >> shift) // c)
            m = n + 2 * k
            mm = m * (m - 1)
            s0r += xr
            s0i += xi
            s1r += m * xr
            s1i += m * xi
            s2r += mm * xr
            s2i += mm * xi
            e0 += err
            e1 += m * err
            e2 += mm * err

        # the prefactors over 2^{qn+frac} n!: W^n for J_n, and each
        # derivative one more factor 2^{q-1} conj(W) / |W|^2 = 1/z
        vr, vi = 1, 0
        for _ in range(n):
            vr, vi = vr * a - vi * b, vr * b + vi * a
        d = math.factorial(n) << (q * n + frac)
        values = []
        for sr, si, es in ((s0r, s0i, e0), (s1r, s1i, e1), (s2r, s2i, e2)):
            value = _rounded(vr, vi, sr, si, es, es if w2i else 0, d)
            if value is None:
                return None
            values.append(value)
            vr, vi = (vr * a + vi * b) << (q - 1), (vi * a - vr * b) << (q - 1)
            d *= norm
        return tuple(values)

    def _series_exact(self, n: int, z: complex) -> tuple[complex, complex, complex]:
        """The three series summed exactly, each rounded once (see the
        class docstring): the reference the fixed-point sum reproduces."""
        a, b, q = _dyadic(z)

        # p0, p1, p2 hold the signed powers (-1)^k W^{m-j}, j = 0, 1, 2, of
        # term k's numerators over D (see the class docstring)
        p0r, p0i = 1, 0
        p1r = p1i = p2r = p2i = 0
        for _ in range(n):
            p2r, p2i, p1r, p1i = p1r, p1i, p0r, p0i
            p0r, p0i = p0r * a - p0i * b, p0r * b + p0i * a
        d = math.factorial(n) << (q * n)

        s0r = s0i = s1r = s1i = s2r = s2i = 0
        k = 0
        while True:
            m = n + 2 * k
            s0r += p0r
            s0i += p0i
            t1r = t1i = t2r = t2i = 0
            if m >= 1:
                t1r, t1i = (m * p1r) << (q - 1), (m * p1i) << (q - 1)
                s1r += t1r
                s1i += t1i
            if m >= 2:
                c2, shift = m * (m - 1), 2 * q - 2
                t2r, t2i = (c2 * p2r) << shift, (c2 * p2i) << shift
                s2r += t2r
                s2i += t2i
            if (k + 1 >= max(n, 2) and _negligible(p0r, p0i, s0r, s0i, d)
                    and _negligible(t1r, t1i, s1r, s1i, d)
                    and _negligible(t2r, t2i, s2r, s2i, d)):
                break
            k += 1
            if k >= n + self.max_terms:
                raise EnvelopeError(
                    f"series for J_{n}({z}) did not converge in {k} terms")
            # D gains the factor 2^{2q} k (n+k); the powers gain -W^2
            c = k * (n + k)
            d = (d * c) << (2 * q)
            s0r, s0i = (s0r * c) << (2 * q), (s0i * c) << (2 * q)
            s1r, s1i = (s1r * c) << (2 * q), (s1i * c) << (2 * q)
            s2r, s2i = (s2r * c) << (2 * q), (s2i * c) << (2 * q)
            p2r, p2i = -p0r, -p0i
            p1r, p1i = p2r * a - p2i * b, p2r * b + p2i * a
            p0r, p0i = p1r * a - p1i * b, p1r * b + p1i * a

        return (ensure_finite(complex(s0r / d, s0i / d)),
                ensure_finite(complex(s1r / d, s1i / d)),
                ensure_finite(complex(s2r / d, s2i / d)))


def find_j0_root(evaluator: BesselEval) -> float:
    """Root of J_0 on the bracket [2, 3], by bisection to a width of 1e-13,
    using the same series it tests."""
    lo, hi = 2.0, 3.0
    f_lo = evaluator.j(0, lo).real
    f_hi = evaluator.j(0, hi).real
    if f_lo * f_hi > 0:
        raise ValueError("no sign change on the bracket")
    while hi - lo > 1e-13:
        mid = 0.5 * (lo + hi)
        f_mid = evaluator.j(0, mid).real
        if f_lo * f_mid <= 0:
            hi, f_hi = mid, f_mid
        else:
            lo, f_lo = mid, f_mid
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# cylindrical functions and ladder action
# ---------------------------------------------------------------------------

class CylFunc:
    """Finite span of mixed basis functions c_n e^{i n phi} J_n(r), closed
    under the polar operators.

    ``coeffs`` maps each order n to its coefficient c_n as a Gaussian
    rational (re, im), both parts Fractions; zero coefficients are dropped,
    so equal spans have equal ``coeffs``; the mapping is read-only.  The
    ladder coefficients are the integers +-1 and n, so the action on a
    span, and the difference of two spans, are exact.  Floats are rejected,
    as in ``Polynomial``.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Mapping[int, tuple[Scalar, Scalar]]):
        cleaned = {}
        for n, (re, im) in sorted(coeffs.items()):
            re, im = _as_fraction(re), _as_fraction(im)
            if re or im:
                cleaned[n] = (re, im)
        object.__setattr__(self, "coeffs", MappingProxyType(cleaned))

    def __setattr__(self, *a):  # pragma: no cover - immutability guard
        raise AttributeError("CylFunc is immutable")

    @classmethod
    def basis(cls, order: int, coeff: Scalar = 1) -> "CylFunc":
        """coeff e^{i order phi} J_order(r), for a real coefficient."""
        return cls({order: (coeff, 0)})

    def __sub__(self, other: "CylFunc") -> "CylFunc":
        out = dict(self.coeffs)
        for n, (re, im) in other.coeffs.items():
            a, b = out.get(n, (0, 0))
            out[n] = (a - re, b - im)
        return CylFunc(out)

    def evaluate(self, r: float, phi: float, evaluator: BesselEval) -> complex:
        total = 0j
        for n, (re, im) in self.coeffs.items():
            total += (complex(re, im) * evaluator.j(n, r)
                      * cmath.exp(1j * n * phi))
        return total

    def __eq__(self, other):
        if not isinstance(other, CylFunc):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __repr__(self):
        return f"CylFunc({dict(self.coeffs)!r})"


def apply_polar_op(op: str, f: CylFunc) -> CylFunc:
    """Algebraic action on the span: the rotation generator scales a term by
    its order; raising/lowering shift the order by one and flip the sign."""
    if op == "lz":
        return CylFunc({n: (n * re, n * im) for n, (re, im) in f.coeffs.items()})
    if op in ("raise", "lower"):
        shift = 1 if op == "raise" else -1
        return CylFunc({n + shift: (-re, -im)
                        for n, (re, im) in f.coeffs.items()})
    raise ValueError(f"unknown polar operator {op!r}")


def polar_numeric_crosscheck(op: str, n: int, r: float, phi: float,
                             evaluator: BesselEval, step: float = 1e-5) -> float:
    """Difference between the ladder action computed algebraically and the
    same operator e^{+-i phi}(+-d/dr + (i/r) d/dphi) applied by central
    finite differences to J_n(r) e^{i n phi}."""
    if op not in ("raise", "lower"):
        raise ValueError("crosscheck applies to the raising/lowering operators")
    if r < 0.2:
        raise EnvelopeError("r below the coordinate-singularity cutoff 0.2")
    sign = 1 if op == "raise" else -1

    def f(rr: float, pp: float) -> complex:
        return evaluator.j(n, rr) * cmath.exp(1j * n * pp)

    df_dr = (f(r + step, phi) - f(r - step, phi)) / (2 * step)
    df_dphi = (f(r, phi + step) - f(r, phi - step)) / (2 * step)
    numeric = cmath.exp(sign * 1j * phi) * (sign * df_dr + 1j / r * df_dphi)
    algebraic = apply_polar_op(op, CylFunc.basis(n)).evaluate(r, phi, evaluator)
    return abs(numeric - algebraic)


# ---------------------------------------------------------------------------
# identity residuals
# ---------------------------------------------------------------------------

BESSEL_IDENTITIES = ("ode_A6", "recursion_A7", "diffrel_A8",
                     "diffrel_A9", "diffrel_A10")


def verify_bessel_identity(which: str, n: int, r: float,
                           evaluator: BesselEval) -> float:
    """Absolute residual of one cataloged Bessel identity at (n, r)."""
    if not IDENTITY_MIN_R <= r <= IDENTITY_MAX_R:
        raise EnvelopeError(
            f"r outside [{IDENTITY_MIN_R}, {IDENTITY_MAX_R}]")
    if abs(n) > IDENTITY_MAX_ORDER:
        raise EnvelopeError(f"|n| above {IDENTITY_MAX_ORDER}")
    j, jp, jpp = (v.real for v in evaluator.derivatives(n, r))
    j_down = evaluator.j(n - 1, r).real
    j_up = evaluator.j(n + 1, r).real
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

def _series_side(n: int, r: float, phi: float, t: complex, terms: int,
                 evaluator: BesselEval) -> complex:
    """sum_{m<terms} (-1)^m t^m / m! e^{i(n+m)phi} J_{n+m}(r)."""
    total = 0j
    factor = 1.0 + 0j
    for m in range(terms):
        if m:
            factor *= -t / m
        total += factor * cmath.exp(1j * (n + m) * phi) * evaluator.j(n + m, r)
    return total


#: fewest ladder-expansion terms the generating-function checks accept
MIN_GENFUNC_TERMS = 30


def _genfunc_guards(r: float, t: complex, terms: int):
    if abs(t) > 0.5:
        raise EnvelopeError("|t| above 0.5")
    if not 0.5 <= r <= 10:
        raise EnvelopeError("r outside [0.5, 10]")
    if terms < MIN_GENFUNC_TERMS:
        raise EnvelopeError(
            f"truncation must keep at least {MIN_GENFUNC_TERMS} terms")


def genfunc_a11_check(n: int, r: float, phi: float, t: complex, terms: int,
                      evaluator: BesselEval) -> float:
    """Residual of the raising-exponential generating identity (catalog A.11).

    The right side expands exp(t * raising) across the discrete basis, in
    the normalization where raising acts as -1 on a basis function.  The
    same group element realized as a shift of the plane sends the argument
    to u = sqrt(r^2 + 2 t r e^{i phi}) (principal root) and scales the
    radial part by (r/u)^n, because the angular factor (x + iy)^n is
    invariant under that shift:

        e^{i n phi} (r/u)^n J_n(u)
            = sum_m (-1)^m t^m / m! e^{i(n+m) phi} J_{n+m}(r).

    A widespread looser rendering of this identity drops the radial
    prefactor and carries the shift parameter in the other ladder
    normalization (t -> it, radicand r^2 + 2t(ix - y)); that variant does
    not hold as an identity and is only recorded, by
    :func:`genfunc_a11_literal_diagnostic`.
    """
    t = complex(t)
    _genfunc_guards(r, t, terms)
    radicand = r * r + 2 * t * r * cmath.exp(1j * phi)
    if radicand.real <= 0:
        raise BranchAmbiguityError(
            f"radicand {radicand} leaves the right half-plane")
    u = cmath.sqrt(radicand)
    lhs = cmath.exp(1j * n * phi) * (r / u) ** n * evaluator.j(n, u)
    rhs = _series_side(n, r, phi, t, terms, evaluator)
    return abs(lhs - rhs)


def genfunc_a11_literal_diagnostic(n: int, r: float, phi: float, t: complex,
                                   terms: int, evaluator: BesselEval) -> float:
    """Recorded-only residual of the loose rendering of catalog entry A.11,
    e^{i n phi} J_n(sqrt(r^2 + 2t(ix - y))) with x = r cos phi,
    y = r sin phi, against the same ladder expansion.  Never gated.
    """
    t = complex(t)
    _genfunc_guards(r, t, terms)
    x = r * math.cos(phi)
    y = r * math.sin(phi)
    radicand = r * r + 2 * t * (1j * x - y)
    if radicand.real <= 0:
        raise BranchAmbiguityError(
            f"radicand {radicand} leaves the right half-plane")
    u = cmath.sqrt(radicand)
    lhs = cmath.exp(1j * n * phi) * evaluator.j(n, u)
    return abs(lhs - _series_side(n, r, phi, t, terms, evaluator))


def genfunc_a12_diagnostic(n: int, r: float, phi: float, t: float,
                           terms: int, evaluator: BesselEval) -> dict:
    """Diagnostic for the scaled-shift identity (catalog entry A.12), which
    is reported but never gated.

    Two candidate left sides are evaluated against the common ladder
    expansion: the identity exactly as cataloged,
    exp(r phi / sqrt(2 r phi t + r^2)) * J_n(sqrt(2 r phi t + r^2)), and the
    flow-substitution reading e^{i n phi(t)} J_n(r(t)) with (r(t), phi(t))
    the closed forms reported by :func:`flow_solve`.  Both residuals are
    returned; no threshold is asserted.
    """
    t = float(t)
    _genfunc_guards(r, t, terms)
    radicand = 2 * r * phi * t + r * r
    if radicand <= 0:
        raise BranchAmbiguityError(f"radicand {radicand} not positive")
    scaled_r = math.sqrt(radicand)
    scaled_phi = r * phi / scaled_r
    rhs = _series_side(n, r, phi, t, terms, evaluator)
    j_n = evaluator.j(n, scaled_r)
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


def flow_solve(r0: float, phi0: float, t_end: float,
               steps: int = 10_000) -> FlowResult:
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
    """
    if r0 <= 0:
        raise ValueError("r0 must be positive")
    if phi0 == 0:
        raise ValueError("phi0 must be nonzero")
    if steps < MIN_FLOW_STEPS:
        raise ValueError("steps must be positive")

    def rhs(state):
        r, phi = state
        if abs(r) < 1e-6:
            raise ArithmeticError("flow reached the coordinate singularity r = 0")
        e = cmath.exp(1j * phi)
        return (e, 1j * e / r)

    h = t_end / steps
    r, phi = complex(r0), complex(phi0)
    q = complex(1.0)
    for _ in range(steps):
        k1 = rhs((r, phi))
        k2 = rhs((r + h / 2 * k1[0], phi + h / 2 * k1[1]))
        k3 = rhs((r + h / 2 * k2[0], phi + h / 2 * k2[1]))
        k4 = rhs((r + h * k3[0], phi + h * k3[1]))
        r += h / 6 * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0])
        phi += h / 6 * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1])
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
        integrator_error=max(abs(r - true_r), abs(phi - true_phi)),
    )
