"""Closed-form 3x3 matrix realizations of the Heisenberg group and the
Euclidean group of the plane.

The Heisenberg side is exact: group parameters are rational and composition,
inversion, exponential and logarithm are closed-form polynomial maps.  The
Euclidean side stores the rotation angle as a float (cos/sin of a rational is
irrational, so nothing exact is on offer there) and all of its checks are
tolerance-based at 1e-12.

Both sides use :class:`numeric.Matrix`, which computes in whatever its
entries are.  Exactness is enforced by the element types: ``H3Element`` and
``H3AlgebraElement`` turn their parameters into Fractions and reject floats,
so every Heisenberg matrix is exact; the suites' exact records reject a
residual with a float entry.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

from .numeric import Matrix, Scalar, _as_fraction, _worst

TWO_PI = 2.0 * math.pi

#: central-difference step used when differentiating parametrized matrices
GENERATOR_FD_STEP = 1e-5


#: the 3x3 identity matrix, exact
IDENTITY = Matrix([[1, 0, 0], [0, 1, 0], [0, 0, 1]])


def commutator(a: Matrix, b: Matrix) -> Matrix:
    return a * b - b * a


# ---------------------------------------------------------------------------
# Heisenberg group H3
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class H3Element:
    """Group element with parameters (x1, x2, x3); the matrix form is upper
    unitriangular with x1, x2 on the first row and x3 above the diagonal."""

    x1: Fraction
    x2: Fraction
    x3: Fraction

    def __init__(self, x1: Scalar, x2: Scalar, x3: Scalar):
        object.__setattr__(self, "x1", _as_fraction(x1))
        object.__setattr__(self, "x2", _as_fraction(x2))
        object.__setattr__(self, "x3", _as_fraction(x3))

    @classmethod
    def identity(cls) -> "H3Element":
        return cls(0, 0, 0)

    def to_matrix(self) -> Matrix:
        return Matrix([[1, self.x1, self.x2],
                       [0, 1, self.x3],
                       [0, 0, 1]])


def h3_compose(g: H3Element, h: H3Element) -> H3Element:
    """Composition in parameters: (x1+y1, y2 + x1*y3 + x2, x3+y3)."""
    return H3Element(g.x1 + h.x1,
                     h.x2 + g.x1 * h.x3 + g.x2,
                     g.x3 + h.x3)


def h3_inverse(g: H3Element) -> H3Element:
    """Inversion in parameters: (-x1, x1*x3 - x2, -x3)."""
    return H3Element(-g.x1, g.x1 * g.x3 - g.x2, -g.x3)


@dataclass(frozen=True)
class H3AlgebraElement:
    """Algebra element a*A + b*B + c*C in the strictly-upper-triangular basis
    (A, B, C below); its matrix cube vanishes."""

    a: Fraction
    b: Fraction
    c: Fraction

    def __init__(self, a: Scalar, b: Scalar, c: Scalar):
        object.__setattr__(self, "a", _as_fraction(a))
        object.__setattr__(self, "b", _as_fraction(b))
        object.__setattr__(self, "c", _as_fraction(c))

    def to_matrix(self) -> Matrix:
        return Matrix([[0, self.a, self.b],
                       [0, 0, self.c],
                       [0, 0, 0]])


#: basis matrices of the Heisenberg algebra: [A, C] = B, all else commutes
H3_BASIS_A = Matrix([[0, 1, 0], [0, 0, 0], [0, 0, 0]])
H3_BASIS_B = Matrix([[0, 0, 1], [0, 0, 0], [0, 0, 0]])
H3_BASIS_C = Matrix([[0, 0, 0], [0, 0, 1], [0, 0, 0]])


def h3_exp(m: H3AlgebraElement) -> H3Element:
    """Exponential: nilpotency cuts the series at the quadratic term, giving
    group parameters (a, b + a*c/2, c) exactly."""
    return H3Element(m.a, m.b + m.a * m.c * Fraction(1, 2), m.c)


def h3_log(g: H3Element) -> H3AlgebraElement:
    """Matrix logarithm, exact: log(I + N) = N - N^2/2 for nilpotent N."""
    n = g.to_matrix() - IDENTITY
    m = n - (n * n) * Fraction(1, 2)
    return H3AlgebraElement(m[0, 1], m[0, 2], m[1, 2])


# ---------------------------------------------------------------------------
# Euclidean group E2
# ---------------------------------------------------------------------------

def _wrap_angle(theta: float) -> float:
    theta = math.fmod(theta, TWO_PI)
    if theta < 0:
        theta += TWO_PI
    return theta


@dataclass(frozen=True)
class E2Element:
    """Rotation by theta followed by translation by (x, y).

    theta is normalized into [0, 2*pi) on construction; composition wraps.
    """

    x: float
    y: float
    theta: float

    def __init__(self, x: float, y: float, theta: float):
        object.__setattr__(self, "x", float(x))
        object.__setattr__(self, "y", float(y))
        object.__setattr__(self, "theta", _wrap_angle(float(theta)))

    @classmethod
    def identity(cls) -> "E2Element":
        return cls(0.0, 0.0, 0.0)

    def to_matrix(self) -> Matrix:
        c, s = math.cos(self.theta), math.sin(self.theta)
        return Matrix([[c, -s, self.x],
                       [s, c, self.y],
                       [0.0, 0.0, 1.0]])


def e2_compose(g: E2Element, h: E2Element) -> E2Element:
    c, s = math.cos(g.theta), math.sin(g.theta)
    return E2Element(g.x + c * h.x - s * h.y,
                     g.y + s * h.x + c * h.y,
                     g.theta + h.theta)


def e2_inverse(g: E2Element) -> E2Element:
    """Rotate back, then undo the (back-rotated) translation."""
    c, s = math.cos(-g.theta), math.sin(-g.theta)
    return E2Element(-(c * g.x - s * g.y),
                     -(s * g.x + c * g.y),
                     -g.theta)


def e2_apply(g: E2Element, point: tuple) -> tuple:
    """Act on a plane point: rotate by theta, then translate by (x, y)."""
    a, b = point
    c, s = math.cos(g.theta), math.sin(g.theta)
    return (a * c - b * s + g.x, a * s + b * c + g.y)


#: algebra basis for E2: two translation generators and one rotation generator
E2_BASIS_X = Matrix([[0, 0, 1], [0, 0, 0], [0, 0, 0]])
E2_BASIS_Y = Matrix([[0, 0, 0], [0, 0, 1], [0, 0, 0]])
E2_BASIS_ROT = Matrix([[0, -1, 0], [1, 0, 0], [0, 0, 0]])


def e2_exp_translation(t, axis: str) -> Matrix:
    """exp(t * P_axis) = I + t * P_axis, exactly: the translation generators
    are nilpotent of degree two.  The entries are exact for an exact t and
    floats for a float t."""
    if axis == "x":
        gen = E2_BASIS_X
    elif axis == "y":
        gen = E2_BASIS_Y
    else:
        raise ValueError("axis must be 'x' or 'y'")
    return IDENTITY + gen * t


# ---------------------------------------------------------------------------
# infinitesimal generators by finite differences
# ---------------------------------------------------------------------------

def _h3_matrix_float(p1: float, p2: float, p3: float) -> Matrix:
    return Matrix([[1.0, p1, p2], [0.0, 1.0, p3], [0.0, 0.0, 1.0]])


def _e2_matrix_float(p1: float, p2: float, p3: float) -> Matrix:
    c, s = math.cos(p3), math.sin(p3)
    return Matrix([[c, -s, p1], [s, c, p2], [0.0, 0.0, 1.0]])


EXACT_GENERATORS = {
    ("h3", 1): H3_BASIS_A,
    ("h3", 2): H3_BASIS_B,
    ("h3", 3): H3_BASIS_C,
    ("e2", 1): E2_BASIS_X,
    ("e2", 2): E2_BASIS_Y,
    ("e2", 3): E2_BASIS_ROT,
}


def generators_at_identity(group: str, param_index: int) -> Matrix:
    """Central-difference derivative, at step :data:`GENERATOR_FD_STEP`, of
    the parametrized matrix at the identity; agrees with the exact basis
    matrices to O(step^2)."""
    if group == "h3":
        param_to_matrix = _h3_matrix_float
    elif group == "e2":
        param_to_matrix = _e2_matrix_float
    else:
        raise ValueError("group must be 'h3' or 'e2'")
    if param_index not in (1, 2, 3):
        raise ValueError("param_index must be 1, 2 or 3")
    params = [0.0, 0.0, 0.0]
    params[param_index - 1] = GENERATOR_FD_STEP
    plus = param_to_matrix(*params)
    params[param_index - 1] = -GENERATOR_FD_STEP
    minus = param_to_matrix(*params)
    return (plus - minus) * (1.0 / (2.0 * GENERATOR_FD_STEP))


# ---------------------------------------------------------------------------
# group-axiom verification
# ---------------------------------------------------------------------------

def _random_h3(rng: random.Random) -> H3Element:
    def q():
        return Fraction(rng.randint(-60, 60), rng.randint(1, 12))
    return H3Element(q(), q(), q())


def _random_e2(rng: random.Random) -> E2Element:
    return E2Element(rng.uniform(-5.0, 5.0), rng.uniform(-5.0, 5.0),
                     rng.uniform(0.0, TWO_PI))


#: fewest pseudorandom elements an axiom suite draws
MIN_AXIOM_SAMPLES = 1


def axiom_suite(group: str, samples: int, seed: int) -> dict:
    """Check closure, associativity, identity and inverse on pseudorandom
    elements.  Returns, per axiom, the largest absolute entry difference
    between the two matrix sides, in the entries' own arithmetic: exact
    (Fraction or int) and zero for the Heisenberg group, a float for E2.
    """
    if samples < MIN_AXIOM_SAMPLES:
        raise ValueError(f"samples must be >= {MIN_AXIOM_SAMPLES}")
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

    def diff(axiom: str, m1: Matrix, m2: Matrix):
        diffs[axiom].append(m1.max_abs_diff(m2))

    eye = ident.to_matrix()
    for _ in range(samples):
        g, h, k = draw(rng), draw(rng), draw(rng)
        # closure: parameter-space composition matches the matrix product
        # (and therefore stays in the matrix group)
        diff("closure", compose(g, h).to_matrix(),
             g.to_matrix() * h.to_matrix())
        diff("associativity", compose(compose(g, h), k).to_matrix(),
             compose(g, compose(h, k)).to_matrix())
        diff("identity", compose(g, ident).to_matrix(), g.to_matrix())
        diff("identity", compose(ident, g).to_matrix(), g.to_matrix())
        diff("inverse", compose(g, inverse(g)).to_matrix(), eye)
        diff("inverse", compose(inverse(g), g).to_matrix(), eye)
    return {axiom: _worst(*values) for axiom, values in diffs.items()}
