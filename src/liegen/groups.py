"""Closed-form 3x3 matrix realizations of the Heisenberg group and the
Euclidean group of the plane.

The Heisenberg side is exact: group parameters are rational and composition,
inversion, exponential and logarithm are closed-form polynomial maps.  The
Euclidean side stores the rotation angle as a float (cos/sin of a rational is
irrational, so nothing exact is on offer there) and all of its checks are
tolerance-based at 1e-12.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .numeric import Scalar, _as_fraction

TWO_PI = 2.0 * math.pi

#: central-difference step used when differentiating parametrized matrices
GENERATOR_FD_STEP = 1e-5


# ---------------------------------------------------------------------------
# generic 3x3 matrices
# ---------------------------------------------------------------------------

class Matrix3:
    """Immutable 3x3 matrix over Fractions (exact) or floats (approximate).

    An instance is homogeneous: exact entries (int/Fraction) and float
    entries never mix inside one matrix.
    """

    __slots__ = ("rows", "exact")

    def __init__(self, rows: Iterable[Iterable]):
        rows = tuple(tuple(r) for r in rows)
        if len(rows) != 3 or any(len(r) != 3 for r in rows):
            raise ValueError("need 3x3 entries")
        flat = [e for r in rows for e in r]
        has_float = any(isinstance(e, float) for e in flat)
        has_fraction = any(isinstance(e, Fraction) for e in flat)
        if has_float and has_fraction:
            raise ValueError("exact and float entries must not mix")
        if not has_float:
            rows = tuple(tuple(_as_fraction(e) for e in r) for r in rows)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "exact", not has_float)

    def __setattr__(self, *a):  # pragma: no cover - immutability guard
        raise AttributeError("Matrix3 is immutable")

    @classmethod
    def identity(cls, exact: bool = True) -> "Matrix3":
        one, zero = (1, 0) if exact else (1.0, 0.0)
        return cls([[one, zero, zero], [zero, one, zero], [zero, zero, one]])

    @classmethod
    def unit(cls, i: int, j: int) -> "Matrix3":
        rows = [[0] * 3 for _ in range(3)]
        rows[i][j] = 1
        return cls(rows)

    def __getitem__(self, idx: tuple) -> object:
        i, j = idx
        return self.rows[i][j]

    def __add__(self, other: "Matrix3") -> "Matrix3":
        return Matrix3([[a + b for a, b in zip(ra, rb)]
                        for ra, rb in zip(self.rows, other.rows)])

    def __sub__(self, other: "Matrix3") -> "Matrix3":
        return Matrix3([[a - b for a, b in zip(ra, rb)]
                        for ra, rb in zip(self.rows, other.rows)])

    def __mul__(self, other):
        if isinstance(other, Matrix3):
            return Matrix3(
                [[sum(self.rows[i][k] * other.rows[k][j] for k in range(3))
                  for j in range(3)] for i in range(3)])
        return Matrix3([[e * other for e in r] for r in self.rows])

    def __rmul__(self, scalar):
        return Matrix3([[scalar * e for e in r] for r in self.rows])

    def apply(self, vec) -> tuple:
        return tuple(sum(self.rows[i][k] * vec[k] for k in range(3))
                     for i in range(3))

    def max_abs_diff(self, other: "Matrix3") -> float:
        return max(abs(float(a - b))
                   for ra, rb in zip(self.rows, other.rows)
                   for a, b in zip(ra, rb))

    @property
    def is_zero(self) -> bool:
        return all(e == 0 for r in self.rows for e in r)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Matrix3):
            return NotImplemented
        return all(a == b for ra, rb in zip(self.rows, other.rows)
                   for a, b in zip(ra, rb))

    def __hash__(self):
        return hash(self.rows)

    def __repr__(self):
        return "Matrix3(" + ", ".join(str(list(r)) for r in self.rows) + ")"


def commutator(a: Matrix3, b: Matrix3) -> Matrix3:
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

    def to_matrix(self) -> Matrix3:
        return Matrix3([[1, self.x1, self.x2],
                        [0, 1, self.x3],
                        [0, 0, 1]])

    @classmethod
    def from_matrix(cls, m: Matrix3) -> "H3Element":
        expected = Matrix3([[1, m[0, 1], m[0, 2]],
                            [0, 1, m[1, 2]],
                            [0, 0, 1]])
        if m != expected:
            raise ValueError("matrix is not upper unitriangular")
        return cls(m[0, 1], m[0, 2], m[1, 2])

    def parameters(self) -> tuple:
        return (self.x1, self.x2, self.x3)


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

    def to_matrix(self) -> Matrix3:
        return Matrix3([[0, self.a, self.b],
                        [0, 0, self.c],
                        [0, 0, 0]])


#: basis matrices of the Heisenberg algebra: [A, C] = B, all else commutes
H3_BASIS_A = Matrix3.unit(0, 1)
H3_BASIS_B = Matrix3.unit(0, 2)
H3_BASIS_C = Matrix3.unit(1, 2)


def h3_exp(m: H3AlgebraElement) -> H3Element:
    """Exponential: nilpotency cuts the series at the quadratic term, giving
    group parameters (a, b + a*c/2, c) exactly."""
    return H3Element(m.a, m.b + m.a * m.c * Fraction(1, 2), m.c)


def h3_log(g: H3Element) -> H3AlgebraElement:
    """Matrix logarithm, exact: log(I + N) = N - N^2/2 for nilpotent N."""
    n = g.to_matrix() - Matrix3.identity()
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

    def to_matrix(self) -> Matrix3:
        c, s = math.cos(self.theta), math.sin(self.theta)
        return Matrix3([[c, -s, self.x],
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
E2_BASIS_X = Matrix3.unit(0, 2)
E2_BASIS_Y = Matrix3.unit(1, 2)
E2_BASIS_ROT = Matrix3([[0, -1, 0], [1, 0, 0], [0, 0, 0]])


def e2_exp_translation(t: float, axis: str) -> Matrix3:
    """exp(t * P_axis) = I + t * P_axis, exactly: the translation generators
    are nilpotent of degree two."""
    if axis == "x":
        gen = E2_BASIS_X
    elif axis == "y":
        gen = E2_BASIS_Y
    else:
        raise ValueError("axis must be 'x' or 'y'")
    if isinstance(t, float):
        return Matrix3.identity(exact=False) + Matrix3(
            [[float(e) * t for e in r] for r in gen.rows])
    return Matrix3.identity() + gen * _as_fraction(t)


# ---------------------------------------------------------------------------
# infinitesimal generators by finite differences
# ---------------------------------------------------------------------------

def _h3_matrix_float(p1: float, p2: float, p3: float) -> Matrix3:
    return Matrix3([[1.0, p1, p2], [0.0, 1.0, p3], [0.0, 0.0, 1.0]])


def _e2_matrix_float(p1: float, p2: float, p3: float) -> Matrix3:
    c, s = math.cos(p3), math.sin(p3)
    return Matrix3([[c, -s, p1], [s, c, p2], [0.0, 0.0, 1.0]])


EXACT_GENERATORS = {
    ("h3", 1): H3_BASIS_A,
    ("h3", 2): H3_BASIS_B,
    ("h3", 3): H3_BASIS_C,
    ("e2", 1): E2_BASIS_X,
    ("e2", 2): E2_BASIS_Y,
    ("e2", 3): E2_BASIS_ROT,
}


def generators_at_identity(group: str, param_index: int,
                           step: float = GENERATOR_FD_STEP) -> Matrix3:
    """Central-difference derivative of the parametrized matrix at the
    identity; agrees with the exact basis matrices to O(step^2)."""
    if group == "h3":
        param_to_matrix = _h3_matrix_float
    elif group == "e2":
        param_to_matrix = _e2_matrix_float
    else:
        raise ValueError("group must be 'h3' or 'e2'")
    if param_index not in (1, 2, 3):
        raise ValueError("param_index must be 1, 2 or 3")
    params = [0.0, 0.0, 0.0]
    params[param_index - 1] = step
    plus = param_to_matrix(*params)
    params[param_index - 1] = -step
    minus = param_to_matrix(*params)
    return (plus - minus) * (1.0 / (2.0 * step))


# ---------------------------------------------------------------------------
# group-axiom verification
# ---------------------------------------------------------------------------

@dataclass
class AxiomReport:
    group: str
    samples: int
    seed: int
    max_residuals: dict
    exact: bool

    @property
    def max_residual(self) -> float:
        return max(self.max_residuals.values())


def _random_h3(rng: random.Random) -> H3Element:
    def q():
        return Fraction(rng.randint(-60, 60), rng.randint(1, 12))
    return H3Element(q(), q(), q())


def _random_e2(rng: random.Random) -> E2Element:
    return E2Element(rng.uniform(-5.0, 5.0), rng.uniform(-5.0, 5.0),
                     rng.uniform(0.0, TWO_PI))


#: fewest pseudorandom elements an axiom suite draws
MIN_AXIOM_SAMPLES = 1


def axiom_suite(group: str, samples: int, seed: int) -> AxiomReport:
    """Check closure, associativity, identity and inverse on pseudorandom
    elements.  Residuals are max absolute entry differences between the two
    matrix sides; the Heisenberg residuals are exactly zero.
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

    residuals = {"closure": 0.0, "associativity": 0.0,
                 "identity": 0.0, "inverse": 0.0}
    all_equal = True

    def diff(axiom: str, m1: Matrix3, m2: Matrix3):
        nonlocal all_equal
        if m1.exact and m2.exact and m1 == m2:
            return
        all_equal = False
        # a nonzero exact residual must not round silently to 0.0
        value = m1.max_abs_diff(m2)
        if value == 0.0 and m1 != m2:
            value = math.ulp(0.0)
        residuals[axiom] = max(residuals[axiom], value)

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
    return AxiomReport(group=group, samples=samples, seed=seed,
                       max_residuals=residuals,
                       exact=(group == "h3" and all_equal))
