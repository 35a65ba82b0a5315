"""Closed-form 3x3 matrix realizations of the Heisenberg group and the
Euclidean group of the plane.

Both groups are exact: their parameters are rational, and composition,
inversion, exponential and logarithm are closed-form rational maps.  E(2)
rotates by the rational points of the unit circle, which are dense in SO(2),
so its axioms are checked exactly on a dense set.  The generators are the
tangents of one-parameter curves through the identity, and a central
difference of a curve's own matrices at a rational step gives each one
exactly (:func:`tangent_residuals`, which compares the difference with the
scaled generator first and divides only on a mismatch).  No float enters
the module.

Both element types, ``H3Element`` and ``E2Element``, store integer
numerators over one positive denominator in lowest terms, so equal elements
have equal fields and composition and inversion are integer arithmetic with
one gcd (``_OverDen._reduced``, which skips the public constructor's checks,
as both maps keep an element valid, and rebuilds nothing when the gcd is 1).
Each lays out its matrix in one place, as an integer numerator matrix over
that denominator (``num_matrix``); ``to_matrix`` is that matrix over the
denominator, in ``Fraction`` entries, and the axiom suites compare and size
the two sides of each axiom in those integer matrices.  An algebra element
of either group is a :class:`numeric.Matrix` in the group's basis
(``H3_BASIS_*``, ``E2_BASIS_*``), which computes in whatever its entries
are; ``h3_exp`` rejects a float entry as the element types do, and the
suites' exact records reject a residual with a float entry.

The axiom suites draw their elements with ``rng.randrange(a, b + 1)``, the
call ``randint(a, b)`` makes, so the stream of a seed is randint's, one
lookup shorter per draw.  Both draws build their element through
``_reduced``: an H3 draw is valid for any integers over a positive
denominator, and an E(2) draw's Cayley rotation satisfies c^2 + s^2 = den^2
by construction, so neither needs the public constructor's checks.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

from .numeric import Matrix, Scalar, _as_fraction, _check_order, _worst

#: the 3x3 identity matrix, exact
IDENTITY = Matrix([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
#: the 3x3 zero matrix, in Fraction entries: a tangent's residual on a match
_ZERO_MATRIX = Matrix([[Fraction(0)] * 3] * 3)


def commutator(a: Matrix, b: Matrix) -> Matrix:
    return a * b - b * a


class _OverDen:
    """An element stored as integer numerators ``num`` over one positive
    ``den``, whose ``num_matrix`` is the one place that lays them out."""

    @classmethod
    def _reduced(cls, num: tuple, den: int):
        """The element ``num``/``den`` for a tuple of integers and den > 0,
        reduced by one gcd (when it is 1, ``num`` is stored as given) and
        built without the public constructor's checks: for the results of
        composition and inversion, which keep them."""
        common = math.gcd(den, *num)
        if common != 1:
            num, den = tuple(n // common for n in num), den // common
        g = object.__new__(cls)
        object.__setattr__(g, "num", num)
        object.__setattr__(g, "den", den)
        return g

    def to_matrix(self) -> Matrix:
        """The element's matrix, ``num_matrix() / den`` in Fractions."""
        den = self.den
        return Matrix([[Fraction(n, den) for n in row]
                       for row in self.num_matrix().rows])


# ---------------------------------------------------------------------------
# Heisenberg group H3
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class H3Element(_OverDen):
    """Group element with parameters (x1, x2, x3); the matrix form is upper
    unitriangular with x1, x2 on the first row and x3 above the diagonal.

    The parameters are stored as integer numerators ``num`` = (a, b, c) over
    one positive ``den``, in lowest terms, as ``E2Element`` stores its own:
    x1, x2, x3 = a/den, b/den, c/den.  The constructor takes exact scalars
    (``TypeError`` for a float or a bool).
    """

    num: tuple
    den: int

    def __init__(self, x1: Scalar, x2: Scalar, x3: Scalar):
        params = tuple(map(_as_fraction, (x1, x2, x3)))
        # over the lcm of the reduced denominators no factor is common to all
        den = math.lcm(*(v.denominator for v in params))
        object.__setattr__(self, "num", tuple(
            v.numerator * (den // v.denominator) for v in params))
        object.__setattr__(self, "den", den)

    @classmethod
    def identity(cls) -> "H3Element":
        return cls(0, 0, 0)

    def num_matrix(self) -> Matrix:
        """The matrix times ``den``, in ints."""
        (a, b, c), d = self.num, self.den
        return Matrix._make(((d, a, b),
                             (0, d, c),
                             (0, 0, d)))


def h3_compose(g: H3Element, h: H3Element) -> H3Element:
    """Composition in parameters: (x1+y1, y2 + x1*y3 + x2, x3+y3), over
    d1*d2."""
    (a1, b1, c1), d1 = g.num, g.den
    (a2, b2, c2), d2 = h.num, h.den
    return H3Element._reduced((a1 * d2 + a2 * d1, b2 * d1 + a1 * c2 + b1 * d2,
                               c1 * d2 + c2 * d1), d1 * d2)


def h3_inverse(g: H3Element) -> H3Element:
    """Inversion in parameters: (-x1, x1*x3 - x2, -x3), over d^2."""
    (a, b, c), d = g.num, g.den
    return H3Element._reduced((-a * d, a * c - b * d, -c * d), d * d)


#: basis matrices of the Heisenberg algebra: [A, C] = B, all else commutes
H3_BASIS_A = Matrix([[0, 1, 0], [0, 0, 0], [0, 0, 0]])
H3_BASIS_B = Matrix([[0, 0, 1], [0, 0, 0], [0, 0, 0]])
H3_BASIS_C = Matrix([[0, 0, 0], [0, 0, 1], [0, 0, 0]])


def h3_exp(m: Matrix) -> H3Element:
    """exp(aA + bB + cC) for the algebra element's matrix ``m``: nilpotency
    cuts the series at the quadratic term, giving group parameters
    (a, b + a*c/2, c) exactly.  ``ValueError`` unless ``m`` is strictly
    upper triangular 3x3, ``TypeError`` for an inexact a, b or c."""
    if len(m.rows) != 3 or any(m[i, j] for i in range(3) for j in range(i + 1)):
        raise ValueError("an H3 algebra element is strictly upper triangular")
    a, b, c = map(_as_fraction, (m[0, 1], m[0, 2], m[1, 2]))
    return H3Element(a, b + a * c / 2, c)


def h3_log(g: H3Element) -> Matrix:
    """Matrix logarithm, exact: log(I + N) = N - N^2/2 for nilpotent N."""
    n = g.to_matrix() - IDENTITY
    return n - (n * n) * Fraction(1, 2)


# ---------------------------------------------------------------------------
# Euclidean group E2
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class E2Element(_OverDen):
    """Rotation by u = (c + i*s)/den, |u| = 1, followed by translation by
    (x, y)/den, for integers x, y, c, s and den > 0.

    The numerators ``num`` = (x, y, c, s) and ``den`` are stored in lowest
    terms, so equal elements have equal fields and composition is integer
    arithmetic with one gcd.  The rotations are the rational points of the
    unit circle, ((1 - t^2) + 2t*i)/(1 + t^2) for rational t (Cayley), which
    are dense in SO(2).
    """

    num: tuple
    den: int

    def __init__(self, x: int, y: int, c: int, s: int, den: int = 1):
        num = (x, y, c, s)
        for n in (*num, den):
            _check_order(n, None, "an E2Element argument")
        if den <= 0 or c * c + s * s != den * den:
            raise ValueError("need den > 0 and c^2 + s^2 = den^2")
        common = math.gcd(den, *num)
        object.__setattr__(self, "num", tuple(n // common for n in num))
        object.__setattr__(self, "den", den // common)

    @classmethod
    def identity(cls) -> "E2Element":
        return cls(0, 0, 1, 0)

    def num_matrix(self) -> Matrix:
        """The matrix times ``den``, in ints."""
        (x, y, c, s), d = self.num, self.den
        return Matrix._make(((c, -s, x),
                             (s, c, y),
                             (0, 0, d)))


def e2_compose(g: E2Element, h: E2Element) -> E2Element:
    """(a1, u1)(a2, u2) = (a1 + u1*a2, u1*u2) for a = x + i*y, over d1*d2."""
    (x1, y1, c1, s1), d1 = g.num, g.den
    (x2, y2, c2, s2), d2 = h.num, h.den
    return E2Element._reduced((x1 * d2 + c1 * x2 - s1 * y2,
                               y1 * d2 + s1 * x2 + c1 * y2,
                               c1 * c2 - s1 * s2, s1 * c2 + c1 * s2), d1 * d2)


def e2_inverse(g: E2Element) -> E2Element:
    """(a, u)^-1 = (-conj(u)*a, conj(u)), over the squared denominator."""
    (x, y, c, s), d = g.num, g.den
    return E2Element._reduced((-(c * x + s * y), s * x - c * y, c * d, -s * d),
                              d * d)


def e2_apply(g: E2Element, point: tuple) -> tuple:
    """Act on a rational plane point: rotate by u, then translate by (x, y)."""
    a, b = point
    (x, y, c, s), d = g.num, g.den
    return (Fraction(a * c - b * s + x, d), Fraction(a * s + b * c + y, d))


#: algebra basis for E2: two translation generators and one rotation generator
E2_BASIS_X = Matrix([[0, 0, 1], [0, 0, 0], [0, 0, 0]])
E2_BASIS_Y = Matrix([[0, 0, 0], [0, 0, 1], [0, 0, 0]])
E2_BASIS_ROT = Matrix([[0, -1, 0], [1, 0, 0], [0, 0, 0]])


def e2_exp_translation(t: Scalar, axis: str) -> Matrix:
    """exp(t * P_axis) = I + t * P_axis, exactly: the translation generators
    are nilpotent of degree two.  ``t`` must be exact (``TypeError`` for a
    float)."""
    if axis == "x":
        gen = E2_BASIS_X
    elif axis == "y":
        gen = E2_BASIS_Y
    else:
        raise ValueError("axis must be 'x' or 'y'")
    return IDENTITY + gen * _as_fraction(t)


# ---------------------------------------------------------------------------
# generators as exact tangents
# ---------------------------------------------------------------------------

def tangent_residuals(group: str, h: Scalar) -> list:
    """(M(h) - M(-h)) / 2h - w(h) * generator, exactly, for each
    one-parameter curve M of ``group`` through the identity, at a rational
    step h = p/q != 0 (a curve takes the numerator, +-p).

    The curves are the group's own elements: H3 on one parameter, E(2)
    translated by h along x or y, and E(2) rotated by Cayley's
    ((1 - h^2) + 2h*i) / (1 + h^2), whose angle has tan(theta/2) = h.  H3
    and the translations are affine in h, so w = 1 at every step.  The
    rotation's quotient is w = 2 / (1 + h^2) times its generator at every
    step, so dM/dh at 0 is twice the generator and dM/dtheta the generator.

    Each curve first compares M(h) - M(-h) with 2h w generator: on a match
    the residual is the zero matrix, and only a mismatch pays for the
    quotient, as (M(h) - M(-h) - 2h w generator) / 2h.
    """
    h = _as_fraction(h)
    p, q = h.numerator, h.denominator
    if group == "h3":
        curves = ((lambda a: H3Element(Fraction(a, q), 0, 0), H3_BASIS_A, 1),
                  (lambda a: H3Element(0, Fraction(a, q), 0), H3_BASIS_B, 1),
                  (lambda a: H3Element(0, 0, Fraction(a, q)), H3_BASIS_C, 1))
    elif group == "e2":
        curves = ((lambda a: E2Element(a, 0, q, 0, q), E2_BASIS_X, 1),
                  (lambda a: E2Element(0, a, q, 0, q), E2_BASIS_Y, 1),
                  (lambda a: E2Element(0, 0, q * q - a * a, 2 * a * q,
                                       q * q + a * a),
                   E2_BASIS_ROT, 2 / (1 + h * h)))
    else:
        raise ValueError("group must be 'h3' or 'e2'")
    inverse_step = 1 / (2 * h)      # ZeroDivisionError at h = 0
    residuals = []
    for curve, generator, weight in curves:
        diff = curve(p).to_matrix() - curve(-p).to_matrix()
        step = generator * (2 * h * weight)
        residuals.append(_ZERO_MATRIX if diff == step
                         else (diff - step) * inverse_step)
    return residuals


# ---------------------------------------------------------------------------
# group-axiom verification
# ---------------------------------------------------------------------------

def _random_h3(rng: random.Random) -> H3Element:
    """Parameters p_i/q_i, p_i in [-60, 60] and q_i in [1, 12], drawn as
    (p_1, q_1, p_2, q_2, p_3, q_3) and brought over q_1 q_2 q_3 in ints;
    ``H3Element._reduced`` makes that the one canonical element."""
    draw = rng.randrange
    p1, q1 = draw(-60, 61), draw(1, 13)
    p2, q2 = draw(-60, 61), draw(1, 13)
    p3, q3 = draw(-60, 61), draw(1, 13)
    return H3Element._reduced((p1 * q2 * q3, p2 * q1 * q3, p3 * q1 * q2),
                              q1 * q2 * q3)


def _random_e2(rng: random.Random) -> E2Element:
    """x, y in [-5, 5] over m(q^2 + p^2), m <= 12, and Cayley's rotation of
    t = p/q: u = ((q^2 - p^2) + 2pq*i)/(q^2 + p^2), brought to lowest terms
    by ``E2Element._reduced``."""
    draw = rng.randrange
    p, q, m = draw(-60, 61), draw(1, 13), draw(1, 13)
    den = m * (q * q + p * p)
    # (q^2 - p^2)^2 + (2pq)^2 = (q^2 + p^2)^2 and den > 0: the element is
    # valid, so it skips the public constructor's checks
    return E2Element._reduced((draw(-5 * den, 5 * den + 1),
                               draw(-5 * den, 5 * den + 1),
                               m * (q * q - p * p), 2 * m * p * q), den)


#: fewest pseudorandom elements an axiom suite draws
MIN_AXIOM_SAMPLES = 1


def _gap(M: Matrix, m: int, N: Matrix, n: int) -> Fraction:
    """max |M/m - N/n| over the entries, exactly, for integer matrices M and
    N over positive m and n: the largest entry of |M*n - N*m|, over m*n."""
    return Fraction(max(abs(e) for row in (M * n - N * m).rows for e in row),
                    m * n)


def axiom_suite(group: str, samples: int, seed: int) -> dict:
    """Check closure, associativity, identity and inverse on pseudorandom
    elements, exactly.  Closure compares the matrix of the composed element
    with the matrix product, in integers, for the numerator matrices N over
    the denominators d: with d_g d_h = q d_gh + r, it passes when r = 0 and
    N_gh * q = N_g N_h.  That is the test N_gh (d_g d_h) = (N_g N_h) d_gh
    with one side scaled, not both: gh is in lowest terms, so the entries
    of N_gh (d_gh among them) have no factor common with d_gh, and the
    two-sided equality forces d_gh to divide d_g d_h.  A gh not in lowest
    terms, or any mismatch, goes to the exact gap.  The other axioms compare
    the two elements.  Returns, per axiom, the largest exact gap between the
    two sides' matrix entries (:func:`_gap`): 0 when all are equal."""
    _check_order(samples, MIN_AXIOM_SAMPLES, "samples")
    _check_order(seed, None, "seed")
    rng = random.Random(seed)
    if group == "h3":
        draw, compose, inverse, ident = (
            _random_h3, h3_compose, h3_inverse, H3Element.identity())
    elif group == "e2":
        draw, compose, inverse, ident = (
            _random_e2, e2_compose, e2_inverse, E2Element.identity())
    else:
        raise ValueError("group must be 'h3' or 'e2'")

    diffs = {"closure": [], "associativity": [], "identity": [], "inverse": []}

    def diff(axiom: str, a, b):
        # stored parameters are canonical: equal elements are equal fields
        diffs[axiom].append(0 if a == b else _gap(
            a.num_matrix(), a.den, b.num_matrix(), b.den))

    for _ in range(samples):
        g, h, k = draw(rng), draw(rng), draw(rng)
        gh = compose(g, h)
        # closure: parameter-space composition matches the matrix product
        # (and therefore stays in the matrix group); only a mismatch pays
        # for its gap
        product, den = g.num_matrix() * h.num_matrix(), g.den * h.den
        q, r = divmod(den, gh.den)
        diffs["closure"].append(
            0 if not r and gh.num_matrix() * q == product
            else _gap(gh.num_matrix(), gh.den, product, den))
        diff("associativity", compose(gh, k), compose(g, compose(h, k)))
        diff("identity", compose(g, ident), g)
        diff("identity", compose(ident, g), g)
        g_inv = inverse(g)
        diff("inverse", compose(g, g_inv), ident)
        diff("inverse", compose(g_inv, g), ident)
    return {axiom: _worst(*values) for axiom, values in diffs.items()}
