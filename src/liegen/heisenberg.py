"""Differential-operator realization of the Heisenberg algebra on
Gaussian-weighted polynomials, and the Hermite identities it generates.

The representation space is spanned by functions p(x) w, w = exp(-x^2/2),
with polynomial p.  The weight is a convention: every function here takes
and returns the polynomial part p, a ``Polynomial`` in x.  All ladder
algebra is done with the scaled operators

    lower = x + d/dx        raise = x - d/dx

which map the space to itself with *rational* coefficients; each equals
sqrt(2) times the conventionally normalized lowering/raising operator, so a
factor (1/sqrt(2)) per application is owed whenever results are compared to
the normalized convention.  Those factors are reconciled exactly through
the squared normalizations 1/(n! 2^n), never as floats.

Every check stays in the basis psi_n = H_n w on which the scaled operators
act with integer coefficients,

    raise psi_n = psi_{n+1}        lower psi_n = 2n psi_{n-1},

so the number-basis operators :data:`LOWER` and :data:`RAISE` are banded
operators (``numeric.BandedOp``) with integer coefficients, whose products
stay in the integers at every n.  With S = diag(sqrt(n! 2^n)), S M S^-1 is
sqrt(2) times the usual matrix with sqrt(n) entries, so [lower, raise] = 2
and {lower, raise} = 2(2n+1) here say exactly [a, a+] = 1 and
{a, a+} = 2n+1 in the normalized basis.

sqrt(pi) is likewise held symbolic: an overlap, ``numeric.weighted_overlaps``,
is a rational number in units of sqrt(pi), and the basis normalization
squares to a rational in the same units, so every orthonormality statement
reduces to exact rational arithmetic.

Exactness is enforced by construction: ``Polynomial`` rejects float
coefficients, and the number-basis ladders are built from ints only.

The hot builders work on the stored numerators, one pass and one
normalization per result: the derivative ladder p' - xp, a step of the
three-term recurrence, and a series sum_k p_k t^k / k! (t = y) assembled
from y-free p_k, whose terms cannot meet.  A check compares before it
builds a residual: the Hermite identities end in a difference of two
equal polynomials, which costs no pass, and orthonormality compares each
overlap with its expected value and builds a Fraction residual only for a
mismatch.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterator

from .numeric import (
    BandedOp,
    Polynomial,
    X,
    Y,
    _check_order,
    _series_product,
    series_exp,
    weighted_overlaps,
)

#: lowest Hermite index
MIN_HERMITE_N = 0
#: lowest truncation order of the generating-function and disentangling checks
MIN_SERIES_ORDER = 1
#: fewest number-basis columns the discrete checks read
MIN_DISCRETE_DIM = 1


# ---------------------------------------------------------------------------
# the representation space
# ---------------------------------------------------------------------------

def apply_ladder(kind: str, p: Polynomial) -> Polynomial:
    """Apply one primitive operator to p(x)*w, where w = exp(-x^2/2), and
    return the polynomial part of the image.

    The weight absorbs the derivative of its own exponent:

        lower:      (x + D)(p w) = p' w
        raise:      (x - D)(p w) = (2xp - p') w
        position:   x (p w)      = (xp) w
        derivative: D(p w)       = (p' - xp) w

    ``derivative`` is one pass over p's terms and one normalization: p'
    lowers each exponent of x and xp raises it, so the two meet where the
    exponents differ by two.
    """
    if kind == "lower":
        return p.differentiate("x")
    if kind == "raise":
        return 2 * X * p - p.differentiate("x")
    if kind == "position":
        return X * p
    if kind == "derivative":
        terms = p._nums.items()
        nums = {(a - 1, b, c): n * a for (a, b, c), n in terms if a}
        get = nums.get
        for (a, b, c), n in terms:
            key = (a + 1, b, c)
            nums[key] = get(key, 0) - n
        return Polynomial._make(nums, p._den)
    raise ValueError(f"unknown ladder operator {kind!r}")


# ---------------------------------------------------------------------------
# Hermite polynomials, two independent ways
# ---------------------------------------------------------------------------

_rodrigues_cache = [Polynomial.constant(1)]


def hermite_rodrigues(n: int) -> Polynomial:
    """H_n built operationally: the polynomial part of raise^n applied to the
    bare Gaussian, i.e. exp(x^2/2) (x - d/dx)^n exp(-x^2/2), for every
    n >= 0 (each H_k met on the way is cached)."""
    _check_order(n, MIN_HERMITE_N, "n")
    while len(_rodrigues_cache) <= n:
        _rodrigues_cache.append(apply_ladder("raise", _rodrigues_cache[-1]))
    return _rodrigues_cache[n]


def _recurrence_step(h: Polynomial, h_prev: Polynomial, k: int) -> Polynomial:
    """2x h - 2k h_prev in one pass over the terms, over the lcm of the two
    denominators, and one normalization."""
    den = math.lcm(h._den, h_prev._den)
    up, down = 2 * (den // h._den), 2 * k * (den // h_prev._den)
    nums = {(a + 1, b, c): n * up for (a, b, c), n in h._nums.items()}
    get = nums.get
    for e, n in h_prev._nums.items():
        nums[e] = get(e, 0) - n * down
    return Polynomial._make(nums, den)


def hermite_recurrence_sequence(max_n: int) -> Iterator[Polynomial]:
    """Independent oracle, H_0 .. H_max_n in one pass of the three-term
    recurrence H_{n+1} = 2x H_n - 2n H_{n-1} from H_0 = 1 (and H_{-1} = 0),
    each step one :func:`_recurrence_step`.  Only the last two polynomials
    are held."""
    _check_order(max_n, MIN_HERMITE_N, "max_n")
    h_prev, h = Polynomial.zero(), Polynomial.constant(1)
    yield h
    for k in range(max_n):
        h_prev, h = h, _recurrence_step(h, h_prev, k)
        yield h


def hermite_recurrence(n: int) -> Polynomial:
    """H_n, the last term of :func:`hermite_recurrence_sequence`."""
    for h in hermite_recurrence_sequence(n):
        pass
    return h


# ---------------------------------------------------------------------------
# normalized basis functions
# ---------------------------------------------------------------------------

def mixed_basis(n: int) -> tuple[Polynomial, Fraction]:
    """The n-th basis function H_n(x) w, as its polynomial part H_n, and the
    square of its normalization 1/sqrt(n! 2^n sqrt(pi)), in units of
    1/sqrt(pi): the Fraction 1/(n! 2^n), whose sqrt(pi) unit cancels against
    the one carried by :func:`weighted_overlaps`."""
    return hermite_rodrigues(n), Fraction(1, math.factorial(n) * 2 ** n)


# ---------------------------------------------------------------------------
# discrete (number-basis) ladders
# ---------------------------------------------------------------------------

#: lower psi_n = 2n psi_{n-1} and raise psi_n = psi_{n+1}; lower's 2n is 0
#: at n = 0, so no column n >= 0 reaches an n < 0
LOWER = BandedOp({-1: lambda n: 2 * n})
RAISE = BandedOp({1: lambda n: 1})


def discrete_commutator(dimension: int) -> list:
    """Columns 0 .. ``dimension`` - 1 of [lower, raise] - 2, each empty
    exactly when [lower, raise] psi_n = 2 psi_n."""
    _check_order(dimension, MIN_DISCRETE_DIM, "dimension")
    residual = LOWER.bracket(RAISE) - BandedOp({0: lambda n: 2})
    return [residual.column(n) for n in range(dimension)]


def discrete_anticommutator(dimension: int) -> list:
    """Columns 0 .. ``dimension`` - 1 of {lower, raise} - 2(2n+1), each
    empty exactly when {lower, raise} psi_n = 2(2n+1) psi_n."""
    _check_order(dimension, MIN_DISCRETE_DIM, "dimension")
    residual = (LOWER * RAISE + RAISE * LOWER
                - BandedOp({0: lambda n: 2 * (2 * n + 1)}))
    return [residual.column(n) for n in range(dimension)]


# ---------------------------------------------------------------------------
# identity verification (exact)
# ---------------------------------------------------------------------------

def _half_anticommutator(p: Polynomial) -> Polynomial:
    """(1/2){lower, raise} acting on p: equals the normalized anticommutator
    because each scaled operator carries one factor of sqrt(2)."""
    first = apply_ladder("lower", apply_ladder("raise", p))
    second = apply_ladder("raise", apply_ladder("lower", p))
    return Fraction(1, 2) * (first + second)


def _position_squared_minus_d_squared(p: Polynomial) -> Polynomial:
    x2 = apply_ladder("position", apply_ladder("position", p))
    d2 = apply_ladder("derivative", apply_ladder("derivative", p))
    return x2 - d2


def _monomial_family(max_degree: int) -> Polynomial:
    """sum_{k <= max_degree} y^k x^k: every x^k at once, each tagged by y^k;
    ``max_degree`` is checked by ``_check_order`` (a negative one would tag
    nothing, and a check on the empty family would read no residual)."""
    _check_order(max_degree, name="max_degree")
    return Polynomial(("x", "y"), {(k, k): 1 for k in range(max_degree + 1)})


def ladder_commutator_residual(max_degree: int) -> Polynomial:
    """[lower, raise] - 2 on every x^k with k <= ``max_degree``, in one
    polynomial in Q[x, y]: the operators act on
    :func:`_monomial_family`, whose y^k tags x^k.

    The tag cannot mix degrees: every operator of :func:`apply_ladder` is
    made of d/dx and multiplication by x, so it maps y^k Q[x] into
    y^k Q[x].  The y^k part of the result is therefore exactly the residual
    on x^k alone, so no two degrees can cancel, and the coefficients are
    those of the per-degree residuals together.
    """
    family = _monomial_family(max_degree)
    comm = (apply_ladder("lower", apply_ladder("raise", family))
            - apply_ladder("raise", apply_ladder("lower", family)))
    return comm - 2 * family


def anticommutator_operator_residual(max_degree: int) -> Polynomial:
    """(1/2){lower, raise} - (x^2 - D^2) on every x^k with k <=
    ``max_degree``, with D = d/dx acting on the weighted function, in one
    polynomial in Q[x, y]: the monomials are tagged by y^k as in
    :func:`ladder_commutator_residual`, and for the same reason the tag
    cannot mix degrees.  Over k <= N this covers every degree that the
    eigenvalue relations of :func:`verify_hermite_identity` reach for
    n <= N.
    """
    family = _monomial_family(max_degree)
    return (_half_anticommutator(family)
            - _position_squared_minus_d_squared(family))


def verify_hermite_identity(which: str, n: int):
    """Exact residual of one cataloged Hermite identity; identically zero on
    pass.  Residuals are polynomials except for ``orthonormality``, which
    returns a Fraction: the first nonzero norm_n * overlap(psi_n, psi_m)
    - delta_nm over m <= n, with ``psi_n, norm_n = mixed_basis(n)``.
    Because norm_n > 0, that vanishes exactly when the normalized overlap
    overlap(psi_n, psi_m) * sqrt(norm_n * norm_m) equals delta_nm (for m != n
    both say the overlap is 0, for m == n both say it is 1 / norm_n).  The
    n + 1 overlaps are one call of :func:`weighted_overlaps`: H_n's moment
    row is built once and each H_m is one dot product with it, so the
    record over n <= N does O(N^3) term products, not O(N^4).  Each
    overlap is compared with delta_nm / norm_n first, and the residual is
    built only for the first that differs.

    ``ode_A2`` and ``recursion_A3`` put the terms with the lone x-factor
    last, (h'' + 2n h) - 2x h' and (H_{n+1} + 2n H_{n-1}) - 2x H_n, so a
    passing check ends in a difference of two equal polynomials, which
    needs no pass over their terms.

    ``anticommutator`` is only the eigenvalue relation
    (1/2){lower, raise} psi_n = (2n + 1) psi_n on the n-th basis function;
    the operator identity behind it is checked on all monomials at once by
    :func:`anticommutator_operator_residual`.
    """
    if which == "ode_A2":
        h = hermite_rodrigues(n)
        hp = h.differentiate("x")
        return (hp.differentiate("x") + 2 * n * h) - 2 * X * hp
    if which == "recursion_A3":
        if n == 0:
            return hermite_rodrigues(1) - 2 * X * hermite_rodrigues(0)
        return ((hermite_rodrigues(n + 1) + 2 * n * hermite_rodrigues(n - 1))
                - 2 * X * hermite_rodrigues(n))
    if which == "diffrel_A4":
        h = hermite_rodrigues(n)
        lower_term = (2 * n * hermite_rodrigues(n - 1)
                      if n else Polynomial.zero())
        return h.differentiate("x") - lower_term
    if which == "anticommutator":
        basis = hermite_rodrigues(n)
        return _half_anticommutator(basis) - (2 * n + 1) * basis
    if which == "orthonormality":
        fn, norm_n = mixed_basis(n)
        overlaps = weighted_overlaps(
            fn, [hermite_rodrigues(m) for m in range(n + 1)])
        unit = 1 / norm_n     # overlap(psi_n, psi_n) on pass
        for m, overlap in enumerate(overlaps):
            delta = 1 if m == n else 0
            if overlap != delta * unit:
                return norm_n * overlap - delta
        return Fraction(0)
    raise ValueError(f"unknown identity {which!r}")


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
    poly_residual = apply_ladder("raise", fn) - fnext
    norm_residual = norm_n / 2 - (n + 1) * norm_next
    return poly_residual, norm_residual


# ---------------------------------------------------------------------------
# shift operator and generating-function checks (exact series in t = y)
# ---------------------------------------------------------------------------

def _tagged_sum(coeffs: list) -> Polynomial:
    """sum_k coeffs[k] t^k / k!, t = y, for polynomials free of y: term k's
    keys all carry y^k, so no two terms meet, and the sum is one
    comprehension over the lcm of the d_k k!."""
    dens = [p._den * math.factorial(k) for k, p in enumerate(coeffs)]
    den = math.lcm(*dens)
    return Polynomial._make(
        {(a, k, c): n * (den // d_k)
         for k, (p, d_k) in enumerate(zip(coeffs, dens))
         for (a, _, c), n in p._nums.items()}, den)


def shift_series(order: int) -> Polynomial:
    """exp(-t d/dx) w through t^order (checked by ``_check_order``), t = y:
    the shifted ground state w(x - t), term k being (-D)^k w t^k / k!,
    which stays in the weighted space because d/dx does."""
    _check_order(order)
    terms = [Polynomial.constant(1)]
    for _ in range(order):
        terms.append(-apply_ladder("derivative", terms[-1]))
    return _tagged_sum(terms)


def _hermite_series(order: int) -> Polynomial:
    """sum H_k t^k / k!, H_k from :func:`hermite_rodrigues`, through t^order
    (t = y; ``_check_order`` down to :data:`MIN_SERIES_ORDER`)."""
    _check_order(order, MIN_SERIES_ORDER)
    return _tagged_sum([hermite_rodrigues(k) for k in range(order + 1)])


def disentangle_check(order: int) -> Polynomial:
    """Residual series, in Q[x, y] with y = t, of the factorization
    exp(t(x - D)) = exp(tx) exp(-t^2/2) exp(-tD) applied to the ground state.

    The left side is expanded by direct operator application (term k is
    raise^k / k! on the bare Gaussian, read from the hermite_rodrigues
    cache that builds exactly that); the right side multiplies the two
    scalar/polynomial exponential series into the shifted Gaussian, whose
    own weight re-expands as w times exp(xt - t^2/2).  The difference must
    vanish identically through the requested order.

    The right side is exp(tx) (exp(-t^2/2) shift), not
    (exp(tx) exp(-t^2/2)) shift: the coefficients of exp(-t^2/2) are
    constants and those of exp(tx) single monomials x^k/k!, so neither
    product has a dense factor on both sides, where the other association
    multiplies two series of dense polynomials.  Series multiplication is
    exact and associative, so the residual is the same series.
    """
    lhs = _hermite_series(order)
    exp_tx = series_exp(X * Y, order)
    exp_t2 = series_exp(Y * Y * Fraction(-1, 2), order)
    shifted = _series_product(exp_t2, shift_series(order), order)
    return lhs - _series_product(exp_tx, shifted, order)


def hermite_genfunc_check(order: int) -> Polynomial:
    """Residual series of exp(2xt - t^2) minus sum H_n(x) t^n / n! through
    the requested order, in Q[x, y] with y = t; the Hermite side comes from
    the operational construction, the exponential side from series_exp."""
    return series_exp(2 * X * Y - Y * Y, order) - _hermite_series(order)
