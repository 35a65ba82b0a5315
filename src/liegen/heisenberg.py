"""Differential-operator realization of the Heisenberg algebra on
Gaussian-weighted polynomials, and the Hermite identities it generates.

The representation space is spanned by functions p(x) * exp(-x^2/2) with
polynomial p.  All ladder algebra is done with the scaled operators

    lower = x + d/dx        raise = x - d/dx

which map the space to itself with *rational* coefficients; each equals
sqrt(2) times the conventionally normalized lowering/raising operator, so a
factor (1/sqrt(2)) per application is owed whenever results are compared to
the normalized convention.  Those factors are reconciled exactly through
:class:`NormFactor` squares and :data:`SQRT2`, never as floats.

sqrt(pi) is likewise held symbolic: Gaussian moments are rational numbers in
units of sqrt(pi), and the basis normalization squares to a rational in the
same units, so every orthonormality statement reduces to exact rational
arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

from .numeric import (
    Polynomial,
    PowerSeries,
    SqrtRational,
    X,
    gaussian_moment,
    series_exp,
)

#: sqrt(2), the exact ratio between the scaled and normalized ladder operators
SQRT2 = SqrtRational(1, 2)

#: lowest Hermite index
MIN_HERMITE_N = 0
#: lowest truncation order of the generating-function and disentangling checks
MIN_SERIES_ORDER = 1
#: smallest number-basis truncation of the discrete ladder matrices
MIN_DISCRETE_DIM = 2


# ---------------------------------------------------------------------------
# the representation space
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GaussianWeighted:
    """A function p(x) * exp(-x^2/2), represented by its polynomial part."""

    poly: Polynomial

    def __init__(self, poly):
        if not isinstance(poly, Polynomial):
            poly = Polynomial.constant(poly)
        if any(v != "x" for v in poly.variables):
            raise ValueError("polynomial part must be univariate in x")
        object.__setattr__(self, "poly", poly)

    @property
    def is_zero(self) -> bool:
        return self.poly.is_zero

    def __add__(self, other: "GaussianWeighted") -> "GaussianWeighted":
        return GaussianWeighted(self.poly + other.poly)

    def __sub__(self, other: "GaussianWeighted") -> "GaussianWeighted":
        return GaussianWeighted(self.poly - other.poly)

    def __mul__(self, scalar) -> "GaussianWeighted":
        return GaussianWeighted(self.poly * scalar)

    __rmul__ = __mul__

    def __repr__(self):
        return f"({self.poly!r})*w"


GROUND_STATE = GaussianWeighted(Polynomial.constant(1))


def apply_ladder(kind: str, f: GaussianWeighted) -> GaussianWeighted:
    """Apply one primitive operator to p(x)*w, where w = exp(-x^2/2).

    The weight absorbs the derivative of its own exponent:

        lower:      (x + D)(p w) = p' w
        raise:      (x - D)(p w) = (2xp - p') w
        derivative: D(p w)       = (p' - xp) w
    """
    p = f.poly
    if kind == "lower":
        return GaussianWeighted(p.differentiate("x"))
    if kind == "raise":
        return GaussianWeighted(2 * X * p - p.differentiate("x"))
    if kind == "position":
        return GaussianWeighted(X * p)
    if kind == "derivative":
        return GaussianWeighted(p.differentiate("x") - X * p)
    if kind == "identity":
        return f
    raise ValueError(f"unknown ladder operator {kind!r}")


def apply_word(word, f: GaussianWeighted) -> GaussianWeighted:
    """Apply a sequence of primitive operators, rightmost first."""
    for kind in reversed(list(word)):
        f = apply_ladder(kind, f)
    return f


# ---------------------------------------------------------------------------
# Hermite polynomials, two independent ways
# ---------------------------------------------------------------------------

_rodrigues_cache = [Polynomial.constant(1)]


def hermite_rodrigues(n: int) -> Polynomial:
    """H_n built operationally: the polynomial part of raise^n applied to the
    bare Gaussian, i.e. exp(x^2/2) (x - d/dx)^n exp(-x^2/2), for every
    n >= 0 (each H_k met on the way is cached)."""
    if n < MIN_HERMITE_N:
        raise ValueError("n must be non-negative")
    while len(_rodrigues_cache) <= n:
        raised = apply_ladder("raise", GaussianWeighted(_rodrigues_cache[-1]))
        _rodrigues_cache.append(raised.poly)
    return _rodrigues_cache[n]


def hermite_recurrence_sequence(max_n: int) -> Iterator[Polynomial]:
    """Independent oracle, H_0 .. H_max_n in one pass of the three-term
    recurrence H_{n+1} = 2x H_n - 2n H_{n-1} from H_0 = 1 (and H_{-1} = 0).
    Only the last two polynomials are held."""
    if max_n < MIN_HERMITE_N:
        raise ValueError("n must be non-negative")
    h_prev, h = Polynomial.zero(), Polynomial.constant(1)
    yield h
    for k in range(max_n):
        h_prev, h = h, 2 * X * h - 2 * k * h_prev
        yield h


def hermite_recurrence(n: int) -> Polynomial:
    """H_n, the last term of :func:`hermite_recurrence_sequence`."""
    for h in hermite_recurrence_sequence(n):
        pass
    return h


# ---------------------------------------------------------------------------
# normalized basis functions and overlaps
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NormFactor:
    """Normalization 1/sqrt(n! 2^n sqrt(pi)), stored through its exact square.

    ``squared_value`` is norm^2 * sqrt(pi) = 1/(n! 2^n); the sqrt(pi) unit
    cancels against the one carried by Gaussian moments.
    """

    squared_value: Fraction

    def __post_init__(self):
        if self.squared_value <= 0:
            raise ValueError("norm square must be positive")


def mixed_basis(n: int) -> tuple[GaussianWeighted, NormFactor]:
    """The n-th basis function H_n(x) w and its normalization factor."""
    h = hermite_rodrigues(n)
    norm = NormFactor(Fraction(1, math.factorial(n) * 2 ** n))
    return GaussianWeighted(h), norm


def weighted_overlap(f: GaussianWeighted, g: GaussianWeighted) -> Fraction:
    """integral f*g dx over the real line, in units of sqrt(pi).

    The two Gaussian envelopes combine to exp(-x^2), so the integral is a
    rational combination of Gaussian moments.
    """
    product = f.poly * g.poly
    total = Fraction(0)
    for exps, coeff in product.terms.items():
        k = exps[0] if exps else 0
        total += coeff * gaussian_moment(k)
    return total


def inner_product(n: int, m: int) -> SqrtRational:
    """Exact overlap of normalized basis functions n and m.

    The sqrt(pi) carried by the moment integral cancels against the two
    quarter powers in the normalizations, leaving the rational moment sum
    divided by sqrt(n! m! 2^(n+m)); orthogonality makes that sum vanish for
    n != m, so the result is exactly delta_{nm}.
    """
    fn, norm_n = mixed_basis(n)
    fm, norm_m = mixed_basis(m)
    moment_sum = weighted_overlap(fn, fm)
    return SqrtRational(moment_sum) * SqrtRational(
        1, norm_n.squared_value * norm_m.squared_value)


# ---------------------------------------------------------------------------
# discrete (number-basis) matrices
# ---------------------------------------------------------------------------

class DiscreteMatrix:
    """N x N truncation of a number-basis operator, entries exact SqrtRational."""

    __slots__ = ("dimension", "entries")

    def __init__(self, entries):
        entries = tuple(tuple(e) for e in entries)
        n = len(entries)
        if any(len(r) != n for r in entries):
            raise ValueError("matrix must be square")
        object.__setattr__(self, "dimension", n)
        object.__setattr__(self, "entries", entries)

    def __setattr__(self, *a):  # pragma: no cover - immutability guard
        raise AttributeError("DiscreteMatrix is immutable")

    def __getitem__(self, idx):
        i, j = idx
        return self.entries[i][j]

    def __mul__(self, other: "DiscreteMatrix") -> "DiscreteMatrix":
        # visit only products of two nonzero entries, k ascending per (i, j)
        n = self.dimension
        zero = SqrtRational(0)
        other_rows = [[(j, b) for j, b in enumerate(row) if not b.is_zero]
                      for row in other.entries]
        rows = []
        for row in self.entries:
            out = [zero] * n
            for k, a in enumerate(row):
                if a.is_zero:
                    continue
                for j, b in other_rows[k]:
                    out[j] = out[j] + a * b
            rows.append(out)
        return DiscreteMatrix(rows)

    def __add__(self, other: "DiscreteMatrix") -> "DiscreteMatrix":
        return DiscreteMatrix(
            [[a + b for a, b in zip(ra, rb)]
             for ra, rb in zip(self.entries, other.entries)])

    def __sub__(self, other: "DiscreteMatrix") -> "DiscreteMatrix":
        return DiscreteMatrix(
            [[a + (-1) * b for a, b in zip(ra, rb)]
             for ra, rb in zip(self.entries, other.entries)])

    def __eq__(self, other) -> bool:
        if not isinstance(other, DiscreteMatrix):
            return NotImplemented
        return self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    def __repr__(self):
        return f"DiscreteMatrix({self.dimension}x{self.dimension})"


def discrete_matrix(op: str, dimension: int) -> DiscreteMatrix:
    """Number-basis matrices: lowering has sqrt(n) on the superdiagonal
    (row n-1, column n), raising has sqrt(n+1) on the subdiagonal."""
    if dimension < MIN_DISCRETE_DIM:
        raise ValueError(f"dimension must be at least {MIN_DISCRETE_DIM}")
    zero = SqrtRational(0)
    rows = [[zero] * dimension for _ in range(dimension)]
    if op == "lower":
        for n in range(1, dimension):
            rows[n - 1][n] = SqrtRational(1, n)
    elif op == "raise":
        for n in range(dimension - 1):
            rows[n + 1][n] = SqrtRational(1, n + 1)
    elif op == "identity":
        for n in range(dimension):
            rows[n][n] = SqrtRational(1)
    else:
        raise ValueError(f"unknown discrete operator {op!r}")
    return DiscreteMatrix(rows)


def discrete_commutator(dimension: int) -> DiscreteMatrix:
    a_minus = discrete_matrix("lower", dimension)
    a_plus = discrete_matrix("raise", dimension)
    return a_minus * a_plus - a_plus * a_minus


def discrete_anticommutator(dimension: int) -> DiscreteMatrix:
    a_minus = discrete_matrix("lower", dimension)
    a_plus = discrete_matrix("raise", dimension)
    return a_minus * a_plus + a_plus * a_minus


# ---------------------------------------------------------------------------
# identity verification (exact)
# ---------------------------------------------------------------------------

def _half_anticommutator(f: GaussianWeighted) -> GaussianWeighted:
    """(1/2){lower, raise} acting on f: equals the normalized anticommutator
    because each scaled operator carries one factor of sqrt(2)."""
    first = apply_word(("lower", "raise"), f)
    second = apply_word(("raise", "lower"), f)
    return Fraction(1, 2) * (first + second)


def _position_squared_minus_d_squared(f: GaussianWeighted) -> GaussianWeighted:
    x2 = apply_word(("position", "position"), f)
    d2 = apply_word(("derivative", "derivative"), f)
    return x2 - d2


def verify_hermite_identity(which: str, n: int):
    """Exact residual of one cataloged Hermite identity; identically zero on
    pass.  Residuals are polynomials except for ``orthonormality``, which
    returns an exact scalar.
    """
    if which == "ode_A2":
        h = hermite_rodrigues(n)
        hp = h.differentiate("x")
        return hp.differentiate("x") - 2 * X * hp + 2 * n * h
    if which == "recursion_A3":
        if n == 0:
            return hermite_rodrigues(1) - 2 * X * hermite_rodrigues(0)
        return (hermite_rodrigues(n + 1)
                - 2 * X * hermite_rodrigues(n)
                + 2 * n * hermite_rodrigues(n - 1))
    if which == "diffrel_A4":
        h = hermite_rodrigues(n)
        lower_term = (2 * n * hermite_rodrigues(n - 1)
                      if n else Polynomial.zero())
        return h.differentiate("x") - lower_term
    if which == "anticommutator":
        # operator identity on monomial-weighted inputs first ...
        for k in range(0, 7):
            mono = GaussianWeighted(X ** k)
            diff = _half_anticommutator(mono) - _position_squared_minus_d_squared(mono)
            if not diff.is_zero:
                return diff.poly
        # ... then the eigenvalue relation on the n-th basis function
        basis, _ = mixed_basis(n)
        residual = _half_anticommutator(basis) - (2 * n + 1) * basis
        return residual.poly
    if which == "orthonormality":
        for m in range(n + 1):
            expected = 1 if m == n else 0
            residual = inner_product(n, m) - expected
            if not residual.is_zero:
                return residual
        return SqrtRational(0)
    raise ValueError(f"unknown identity {which!r}")


def anticommutator_eigenvalue(n: int) -> Fraction:
    """Eigenvalue of (1/2){lower, raise} on the n-th basis function (2n+1)."""
    basis, _ = mixed_basis(n)
    image = _half_anticommutator(basis)
    lead = basis.poly.coefficient({"x": basis.poly.degree_in("x")})
    image_lead = image.poly.coefficient({"x": basis.poly.degree_in("x")})
    eig = image_lead / lead
    if not (image - eig * basis).is_zero:
        raise ArithmeticError(f"basis function {n} is not an eigenfunction")
    return eig


def raising_consistency_residual(n: int):
    """Check that raising the n-th basis function lands exactly on the
    (n+1)-st after renormalization.

    In scaled form: raise(H_n w) = H_{n+1} w, and the normalization squares
    satisfy norm_n^2 / 2 = (n+1) * norm_{n+1}^2, which together say
    a_plus |n> = sqrt(n+1) |n+1> with a_plus = raise/sqrt(2).
    Returns (polynomial residual, rational norm residual).
    """
    fn, norm_n = mixed_basis(n)
    fnext, norm_next = mixed_basis(n + 1)
    poly_residual = apply_ladder("raise", fn).poly - fnext.poly
    norm_residual = (norm_n.squared_value / 2
                     - (n + 1) * norm_next.squared_value)
    return poly_residual, norm_residual


# ---------------------------------------------------------------------------
# shift operator and generating-function checks (exact series)
# ---------------------------------------------------------------------------

def shift_series(f, order: int) -> PowerSeries:
    """Series for exp(-t d/dx) f: term k is (-1)^k f^(k) / k!.

    For a polynomial f of degree d and order >= d this is exactly the
    expansion of f(x - t) in powers of t.  Gaussian-weighted functions
    stay in their space because d/dx does.
    """
    if isinstance(f, Polynomial):
        derivative = lambda g: g.differentiate("x")
        zero = Polynomial.zero()
    elif isinstance(f, GaussianWeighted):
        derivative = lambda g: apply_ladder("derivative", g)
        zero = GaussianWeighted(Polynomial.zero())
    else:
        raise TypeError("shift_series expects a Polynomial or GaussianWeighted")
    coeffs = []
    current = f
    factorial = 1
    for k in range(order + 1):
        if k:
            current = derivative(current)
            factorial *= k
        sign = Fraction((-1) ** k, factorial)
        coeffs.append(sign * current)
    return PowerSeries(coeffs, order, zero)


def disentangle_check(order: int) -> PowerSeries:
    """Residual series of the factorization
    exp(t(x - D)) = exp(tx) exp(-t^2/2) exp(-tD) applied to the ground state.

    The left side is expanded by direct operator application (term k is
    raise^k / k! on the bare Gaussian, read from the hermite_rodrigues
    cache that builds exactly that); the right side multiplies the two
    scalar/polynomial exponential series into the shifted Gaussian, whose
    own weight re-expands as w times exp(xt - t^2/2).  The difference must
    vanish identically through the requested order.
    """
    if order < MIN_SERIES_ORDER:
        raise ValueError(f"order must be >= {MIN_SERIES_ORDER}")
    lhs = PowerSeries(
        [Fraction(1, math.factorial(k))
         * GaussianWeighted(hermite_rodrigues(k))
         for k in range(order + 1)],
        order, GaussianWeighted(Polynomial.zero()))

    exp_tx = series_exp(PowerSeries.from_terms({1: X}, order, Polynomial.zero()))
    exp_t2 = series_exp(PowerSeries.from_terms(
        {2: Polynomial.constant(Fraction(-1, 2))}, order, Polynomial.zero()))
    shifted_ground = shift_series(GROUND_STATE, order)
    rhs = (exp_tx * exp_t2) * shifted_ground

    return lhs - rhs


def hermite_genfunc_check(order: int) -> PowerSeries:
    """Residual series of exp(2xt - t^2) minus sum H_n(x) t^n / n! through
    the requested order; the Hermite side comes from the operational
    construction, the exponential side from series_exp."""
    if order < MIN_SERIES_ORDER:
        raise ValueError(f"order must be >= {MIN_SERIES_ORDER}")
    exponent = PowerSeries.from_terms(
        {1: 2 * X, 2: Polynomial.constant(-1)}, order, Polynomial.zero())
    lhs = series_exp(exponent)
    rhs = PowerSeries(
        [Fraction(1, math.factorial(k)) * hermite_rodrigues(k)
         for k in range(order + 1)],
        order, Polynomial.zero())
    return lhs - rhs
