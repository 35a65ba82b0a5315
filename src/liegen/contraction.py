"""Rotation-algebra vector fields, their scaled-basis contraction onto the
planar Euclidean algebra, and the Legendre-to-Bessel limit.

A vector field keeps its coefficients as integers over one denominator.
Commutator algebra, the contraction rate and the limiting Bessel equation
on the ascending series (in Q[r]) are exact; only the tangent-plane ladder
and Legendre limits are measured, with numeric rates.
"""

from __future__ import annotations

import cmath
import math
import numbers
import operator
from fractions import Fraction
from typing import Sequence

from .euclidean import BESSEL, _through, bessel_series
from .numeric import (CANONICAL_VARS, Polynomial, Scalar, X, Y, Z,
                      _add_lie, _as_fraction, _check_order, _over_lcm,
                      _scaled_powers, _worst)


# ---------------------------------------------------------------------------
# first-order differential operators with polynomial coefficients
# ---------------------------------------------------------------------------

class VectorFieldOp:
    """c_x d/dx + c_y d/dy + c_z d/dz with polynomial coefficients, stored
    as a :class:`Polynomial` is, jointly: the numerator dicts ``_cols`` of
    c_x, c_y, c_z over one ``_den > 0``, no numerator zero and no factor
    common to all, so equal fields have equal storage.  :attr:`coeffs`
    rebuilds (c_x, c_y, c_z) as polynomials."""

    __slots__ = ("_cols", "_den")

    def __init__(self, c_x=None, c_y=None, c_z=None):
        # no gcd: a prime p | lcm divides some c_v's denominator to its full
        # power, so p divides neither c_v's cofactor nor all its numerators
        cols, den = _over_lcm(c if isinstance(c, Polynomial) else
                              Polynomial.constant(0 if c is None else c)
                              for c in (c_x, c_y, c_z))
        object.__setattr__(self, "_cols", list(map(dict, cols)))
        object.__setattr__(self, "_den", den)

    @classmethod
    def _make(cls, cols: list, den: int) -> "VectorFieldOp":
        """Internal constructor: ``cols`` over ``den > 0``, normalized."""
        g = math.gcd(den, *cols[0].values(), *cols[1].values(), *cols[2].values())
        if g != 1 or any(0 in c.values() for c in cols):
            cols = [{e: n // g for e, n in c.items() if n} for c in cols]
        field = object.__new__(cls)
        object.__setattr__(field, "_cols", cols)
        object.__setattr__(field, "_den", den // g)
        return field

    def __setattr__(self, *a):  # pragma: no cover - immutability guard
        raise AttributeError("VectorFieldOp is immutable")

    @property
    def coeffs(self) -> tuple:
        return tuple(Polynomial._make(dict(c), self._den) for c in self._cols)

    def apply(self, f: Polynomial) -> Polynomial:
        return Polynomial._make(_add_lie({}, f._nums, self._cols, 1),
                                f._den * self._den)

    @property
    def is_zero(self) -> bool:
        return not any(self._cols)

    def __add__(self, other: "VectorFieldOp") -> "VectorFieldOp":
        return _combine(((self, 1), (other, 1)))

    def __sub__(self, other: "VectorFieldOp") -> "VectorFieldOp":
        return _combine(((self, 1), (other, -1)))

    def __mul__(self, factor) -> "VectorFieldOp":
        if isinstance(factor, Polynomial):
            return VectorFieldOp(*(c * factor for c in self.coeffs))
        return _combine(((self, _as_fraction(factor)),))

    def __neg__(self) -> "VectorFieldOp":
        return self * -1

    def __eq__(self, other) -> bool:
        if not isinstance(other, VectorFieldOp):
            return NotImplemented
        return self._den == other._den and self._cols == other._cols

    def __repr__(self):
        parts = [f"({c!r}) d/d{v}"
                 for v, c in zip(CANONICAL_VARS, self.coeffs) if not c.is_zero]
        return " + ".join(parts) if parts else "0"


def _combine(terms) -> VectorFieldOp:
    """sum k * field over the ``(field, k)`` pairs, k an int or a Fraction."""
    den = math.lcm(*(field._den * k.denominator for field, k in terms))
    cols = [{}, {}, {}]
    for field, k in terms:
        scale = den // (field._den * k.denominator) * k.numerator
        for nums, col in zip(cols, field._cols):
            for e, n in col.items():
                nums[e] = nums.get(e, 0) + n * scale
    return VectorFieldOp._make(cols, den)


def vf_commutator(a: VectorFieldOp, b: VectorFieldOp) -> VectorFieldOp:
    """[a, b], exact: each component A(b_v) - B(a_v) is two integer passes
    into one dict over ``a._den * b._den``; one normalization for all."""
    out = [_add_lie(_add_lie({}, b_v, a._cols, 1), a_v, b._cols, -1)
           for a_v, b_v in zip(a._cols, b._cols)]
    return VectorFieldOp._make(out, a._den * b._den)


#: rotation generators about the three axes, and the plane translations
LX = VectorFieldOp(c_y=-Z, c_z=Y)
LY = VectorFieldOp(c_x=Z, c_z=-X)
LZ = VectorFieldOp(c_x=-Y, c_y=X)
PX = VectorFieldOp(c_x=1)
PY = VectorFieldOp(c_y=1)
#: Lx + z Py and Ly - z Px: their coefficients cancel to y d/dz and -x d/dz
_LX_ZPY = LX + PY * Z
_LY_ZPX = LY - PX * Z


def _positive(R: Scalar) -> Fraction:
    """R as a Fraction; the scaled generators need R > 0."""
    R = _as_fraction(R)
    if R <= 0:
        raise ValueError("scale parameter must be positive")
    return R


def scaled_commutator_check(R: Scalar) -> dict:
    """Exact residuals of the bracket relations of the rotation generators
    rescaled by 1/R in the two tilting directions, Lx' = Lx/R, Ly' = Ly/R
    and Lz' = Lz:
    [Lx', Ly'] = -Lz'/R^2, [Ly', Lz'] = -Lx', [Lz', Lx'] = -Ly'."""
    inv_r = 1 / _positive(R)
    lx, ly = LX * inv_r, LY * inv_r
    return {
        "xy": vf_commutator(lx, ly) + LZ * (inv_r * inv_r),
        "yz": vf_commutator(ly, LZ) + lx,
        "zx": vf_commutator(LZ, lx) + ly,
    }


def contracted_relations_check() -> dict:
    """The limiting operators (-d/dy, d/dx, Lz) obey the planar-Euclidean
    bracket table exactly: residual operators of
    [-Py, Px] = 0, [Px, Lz] = Py, [Lz, -Py] = -Px."""
    return {
        "translation_translation": vf_commutator(-PY, PX),
        "px_lz": vf_commutator(PX, LZ) - PY,
        "lz_negpy": vf_commutator(LZ, -PY) + PX,
    }


# ---------------------------------------------------------------------------
# contraction rates on polynomial test functions
# ---------------------------------------------------------------------------

#: the sample points of contraction_residual in the tangent patch,
#: |x0|, |y0| <= 1
DEFAULT_SAMPLE_POINTS = (
    (Fraction(1), Fraction(1, 2)),
    (Fraction(-1, 3), Fraction(1)),
    (Fraction(3, 4), Fraction(-2, 3)),
    (Fraction(-1), Fraction(-1, 5)),
)


def contraction_residual(f: Polynomial, R_list: Sequence[Scalar],
                         ) -> dict[Fraction, Fraction]:
    """Max |((Lx/R + Py) f)| and |((Ly/R - Px) f)| over the points
    (x0, y0, R), (x0, y0) in :data:`DEFAULT_SAMPLE_POINTS`, per R; exact
    rational arithmetic throughout.

    The operators contract onto -Py and Px, so on test functions whose
    z-degree stays at most 1 the residual decays as O(1/R).

    Both operators are affine in 1/R, and the points lie on z = R, so there

        (Lx/R + Py) f = (Lx f + z Py f) / R = y f_z / R,
        (Ly/R - Px) f = (Ly f - z Px f) / R = -x f_z / R,

    as the z d/dy of Lx and the z d/dx of Ly cancel: a z-free f gives
    exactly 0, and the residual is the largest max(|x0|, |y0|) |f_z| / R.
    Each numerator is one application per f of a field built at import,
    restricted once to the line (x0, y0, z) of each sample point
    (:meth:`Polynomial.z_line`), which leaves eight univariate polynomials
    in z, each as int numerators over one denominator.  Each R = r/s is
    then a grid column: one table r^k s^(D - k) serves all eight lines, the
    candidates are compared by integer cross-multiplication, and the
    maximum, divided by R, is the one Fraction built for that R.
    """
    if f.degree() > 6:
        raise ValueError("test polynomial degree above 6")
    R_list = [_positive(R) for R in R_list]
    images = _LX_ZPY.apply(f), _LY_ZPX.apply(f)
    lines = [image.z_line(x0, y0) for x0, y0 in DEFAULT_SAMPLE_POINTS
             for image in images]
    top = max(len(nums) for nums, _ in lines) - 1
    out: dict[Fraction, Fraction] = {}
    for R in R_list:
        # the value of a line at z = R is sum(nums * powers) / (den * s_top)
        powers, s_top = _scaled_powers(R, top)
        worst, worst_den = 0, 1
        for nums, den in lines:
            value = abs(sum(map(operator.mul, nums, powers)))
            if value * worst_den > worst * den:
                worst, worst_den = value, den
        out[R] = Fraction(worst * R.denominator,
                          worst_den * s_top * R.numerator)
    return out


# ---------------------------------------------------------------------------
# tangent-plane ladder limit
# ---------------------------------------------------------------------------

def polar_ladder_limit(n: int, r: float, phi: float,
                       R_list: Sequence[float]) -> dict[float, float]:
    """Residual between the rescaled spherical ladder operators
    e^{+-i phi}(d/dtheta +- i cot(theta) d/dphi)/R, evaluated by central
    finite differences on the pullback J_n(R tan(theta)) e^{i n phi} at
    theta = arctan(r/R), and the plane ladder action -+ J_{n+-1} e^{i(n+-1)phi}.

    The phi step is 1e-4 and the theta step 1e-4/R: the pullback varies on
    the theta scale 1/R, so a fixed step would let the O(h^2) truncation
    grow as R^2 and bury the O(r^2/R^2) geometric signal being measured.
    Every R must be a real number with 0 < R < inf (``ValueError``
    otherwise, a bool or a NaN included), checked before any evaluation.
    """
    if not 0.5 <= r <= 5:
        raise ValueError("r outside [0.5, 5]")
    for R in R_list:
        if (isinstance(R, bool) or not isinstance(R, numbers.Real)
                or not 0 < R < math.inf):
            raise ValueError(f"R = {R!r} is not a number with 0 < R < inf")
    h_phi = 1e-4
    out: dict[float, float] = {}
    for R in R_list:
        R = float(R)
        theta0 = math.atan2(r, R)
        h_theta = h_phi / R

        def pullback(theta: float, p: float) -> complex:
            return BESSEL.j(n, R * math.tan(theta)) * cmath.exp(1j * n * p)

        d_theta = (pullback(theta0 + h_theta, phi)
                   - pullback(theta0 - h_theta, phi)) / (2 * h_theta)
        d_phi = (pullback(theta0, phi + h_phi)
                 - pullback(theta0, phi - h_phi)) / (2 * h_phi)
        cot = 1.0 / math.tan(theta0)
        gaps = []
        for sign in (+1, -1):
            spherical = (cmath.exp(sign * 1j * phi)
                         * (d_theta + sign * 1j * cot * d_phi) / R)
            # limit of L_{+-}/R is (+-)P_{+-}, whose ladder action is
            # -(+-) J_{n+-1} e^{i(n+-1)phi}
            planar = (-sign * BESSEL.j(n + sign, r)
                      * cmath.exp(1j * (n + sign) * phi))
            gaps.append(abs(spherical - planar))
        out[R] = _worst(*gaps)
    return out


# ---------------------------------------------------------------------------
# associated Legendre functions and the Bessel limit
# ---------------------------------------------------------------------------

MAX_LEGENDRE_DEGREE = 4096
#: smallest degree legendre_ode_residual accepts
MIN_LEGENDRE_ODE_DEGREE = 8


def assoc_legendre(l: int, m: int, x: float) -> float:
    """P_l^m(x) without the Condon-Shortley phase, by upward degree
    recurrence from the seeds P_m^m = (2m-1)!! (1-x^2)^{m/2} and
    P_{m+1}^m = (2m+1) x P_m^m.  ``ValueError`` for x outside [-1, 1],
    NaN included.

    The step from degree ll to ll + 1 reads the counters 2ll + 1, ll + m
    and ll - m + 1.  They are carried as floats, stepped by 2, 1 and 1,
    not converted from ints at every step: every value is an integer
    below 2^53, which a float holds exactly, so each product and quotient
    is the float that the int counters would give."""
    _check_order(m, name="m")
    _check_order(l, m, "l")
    if l > MAX_LEGENDRE_DEGREE:
        raise ValueError(f"degree above {MAX_LEGENDRE_DEGREE}")
    if not abs(x) <= 1:
        raise ValueError("argument outside [-1, 1]")
    # (1-x^2)^{m/2} via (1-x)(1+x) keeps precision near the endpoints
    s = math.sqrt((1.0 - x) * (1.0 + x))
    pmm = 1.0
    for k in range(1, m + 1):
        pmm *= (2 * k - 1) * s
    if l == m:
        return pmm
    p_prev, p = pmm, (2 * m + 1) * x * pmm
    a, b, c = 2.0 * m + 3.0, 2.0 * m + 1.0, 2.0
    for _ in range(l - m - 1):
        p_prev, p = p, (a * x * p - b * p_prev) / c
        a += 2.0
        b += 1.0
        c += 1.0
    return p


def mehler_heine_check(m: int, r: float,
                       l_list: Sequence[int]) -> dict[int, float]:
    """|l^{-m} P_l^m(cos(r/l)) - J_m(r)| per degree l.

    The l^{-m} scaling is the standard Mehler-Heine normalization for
    P_l^m without the Condon-Shortley phase, as :func:`assoc_legendre`
    computes it (Szego, Orthogonal Polynomials, sec. 8.1; DLMF 18.11).
    ``ValueError`` for a degree below max(m, 1).
    """
    if not 0.5 <= r <= 8:
        raise ValueError("r outside [0.5, 8]")
    if m > 5:
        raise ValueError("order above 5")
    target = BESSEL.j(m, r).real
    out: dict[int, float] = {}
    for l in l_list:
        # before r / l: l = 0 is a bad degree, not a division by zero
        _check_order(l, max(m, 1), "l")
        value = assoc_legendre(l, m, math.cos(r / l)) / float(l) ** m
        out[l] = abs(value - target)
    return out


def legendre_ode_residual(l: int, m: int, r: float) -> float:
    """Apply the polar-angle form of the Legendre operator,
    (1/sin)d/dtheta sin d/dtheta + l(l+1) - m^2/sin^2, to theta -> J_m(l*theta)
    at theta = r/l, using termwise series derivatives, and divide by l^2.

    As l grows the operator collapses onto the Bessel operator and the
    normalized residual decays like 1/l."""
    _check_order(m, None, "m")
    _check_order(l, MIN_LEGENDRE_ODE_DEGREE, "l")
    if not 0.5 <= r <= 8:
        raise ValueError("r outside [0.5, 8]")
    theta = r / l
    if theta >= math.pi / 4:
        raise ValueError("theta = r/l not small")
    j, jp, jpp = (v.real for v in BESSEL.derivatives(m, l * theta))
    # (1/sin t) d/dt (sin t d/dt) g = g'' + cot(t) g' with g = J_m(l t)
    value = (l * l * jpp + l * jp / math.tan(theta)
             + (l * (l + 1) - m * m / math.sin(theta) ** 2) * j)
    return abs(value) / (l * l)


def bessel_operator_residual(m: int, degree: int) -> Polynomial:
    """r^2 J'' + r J' + (r^2 - m^2) J in Q[r], J = J_m through r^degree and
    r^2 J, the same truncation of J cut back to r^degree (``_through``),
    through r^degree too: identically zero, as the coefficients of the
    ascending series obey (p^2 - m^2) c_p + c_{p-2} = 0."""
    j = bessel_series(m, degree)
    jp = j.differentiate("x")
    return (X * X * jp.differentiate("x") + X * jp - m * m * j
            + _through(X * X * j, degree))
