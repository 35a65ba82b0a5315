"""Exact-arithmetic core: multivariate rational polynomials, truncated
formal power series, and Gaussian moments.

All values in this module are immutable after construction.  Rational
coefficients are plain ``fractions.Fraction`` throughout, so every operation
here is exact; the only floating point in the package lives in the numeric
evaluators built on top.

The public ``Polynomial`` constructor validates its input; arithmetic on
polynomials, whose operands are already valid, builds its results through a
trusted path that only normalizes.  Series products skip zero coefficients,
and ``series_exp`` runs the exponential's ODE recurrence
a_n = (1/n) sum_j j s_j a_{n-j} over the nonzero coefficients of s.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Mapping, Union

Scalar = Union[int, Fraction]

#: Variable names a Polynomial may use, in canonical display/storage order.
CANONICAL_VARS = ("x", "y", "z")

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _as_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected an exact scalar, got {type(value).__name__}")


def ensure_finite(z: complex) -> complex:
    """Reject NaN/inf: a non-finite complex value is an error state here."""
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise ArithmeticError(f"non-finite complex value {z!r}")
    return z


# ---------------------------------------------------------------------------
# polynomials
# ---------------------------------------------------------------------------

class Polynomial:
    """Multivariate polynomial with exact rational coefficients.

    ``variables`` is an ordered subset of :data:`CANONICAL_VARS`; ``terms``
    maps exponent tuples (aligned with ``variables``) to nonzero Fractions.
    Instances are immutable; every operation returns a new polynomial.
    """

    __slots__ = ("variables", "terms")

    def __init__(self, variables: Iterable[str], terms: Mapping[tuple, Scalar]):
        variables = tuple(variables)
        for name in variables:
            if name not in CANONICAL_VARS:
                raise ValueError(f"unknown variable {name!r}")
        if list(variables) != sorted(variables, key=CANONICAL_VARS.index):
            raise ValueError("variables must be in canonical order")
        cleaned = {}
        for exps, coeff in terms.items():
            exps = tuple(exps)
            if len(exps) != len(variables):
                raise ValueError("exponent tuple does not match variables")
            if any(e < 0 or not isinstance(e, int) for e in exps):
                raise ValueError("exponents must be non-negative integers")
            coeff = _as_fraction(coeff)
            if coeff != 0:
                cleaned[exps] = cleaned.get(exps, _ZERO) + coeff
        self._settle(variables, cleaned)

    def _settle(self, variables: tuple, terms: dict) -> None:
        """Store valid terms after dropping zero coefficients and unused
        variables, so equal polynomials share one form."""
        terms = {e: c for e, c in terms.items() if c}
        used = [i for i in range(len(variables)) if any(e[i] for e in terms)]
        if len(used) != len(variables):
            variables = tuple(variables[i] for i in used)
            terms = {tuple(e[i] for i in used): c for e, c in terms.items()}
        object.__setattr__(self, "variables", variables)
        object.__setattr__(self, "terms", terms)

    @classmethod
    def _trusted(cls, variables: tuple, terms: dict) -> "Polynomial":
        """Internal constructor for arithmetic results: ``variables`` is
        already canonical and every key an exponent tuple aligned with it,
        every coefficient a Fraction, so only the normalization runs."""
        poly = object.__new__(cls)
        poly._settle(variables, terms)
        return poly

    def __setattr__(self, *a):  # pragma: no cover - immutability guard
        raise AttributeError("Polynomial is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "Polynomial":
        return cls((), {})

    @classmethod
    def constant(cls, value: Scalar) -> "Polynomial":
        value = _as_fraction(value)
        return cls((), {(): value} if value else {})

    @classmethod
    def variable(cls, name: str) -> "Polynomial":
        return cls((name,), {(1,): _ONE})

    # -- structure ---------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        """Total degree; zero polynomial reports -1."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def degree_in(self, var: str) -> int:
        if var not in self.variables or not self.terms:
            return 0
        i = self.variables.index(var)
        return max(e[i] for e in self.terms)

    def coefficient(self, exps: Mapping[str, int]) -> Fraction:
        """Coefficient of the monomial with the given per-variable exponents."""
        key = tuple(exps.get(v, 0) for v in self.variables)
        for v, e in exps.items():
            if e and v not in self.variables:
                return _ZERO
        return self.terms.get(key, _ZERO)

    def _embedded(self, variables: tuple) -> dict:
        """Re-key terms onto a larger variable tuple (a copy either way)."""
        if variables == self.variables:
            return dict(self.terms)
        positions = [variables.index(v) for v in self.variables]
        out = {}
        for exps, coeff in self.terms.items():
            key = [0] * len(variables)
            for pos, e in zip(positions, exps):
                key[pos] = e
            out[tuple(key)] = coeff
        return out

    @staticmethod
    def _merge_vars(a: "Polynomial", b: "Polynomial") -> tuple:
        if a.variables == b.variables:
            return a.variables
        names = set(a.variables) | set(b.variables)
        return tuple(v for v in CANONICAL_VARS if v in names)

    # -- arithmetic --------------------------------------------------------
    # Operands are valid polynomials, so results go through _trusted.

    def __add__(self, other) -> "Polynomial":
        if not isinstance(other, Polynomial):
            other = Polynomial.constant(other)
        variables = self._merge_vars(self, other)
        terms = self._embedded(variables)
        for exps, coeff in other._embedded(variables).items():
            terms[exps] = terms.get(exps, _ZERO) + coeff
        return Polynomial._trusted(variables, terms)

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return Polynomial._trusted(self.variables,
                                   {e: -c for e, c in self.terms.items()})

    def __sub__(self, other) -> "Polynomial":
        if not isinstance(other, Polynomial):
            other = Polynomial.constant(other)
        return self + (-other)

    def __rsub__(self, other) -> "Polynomial":
        return Polynomial.constant(other) + (-self)

    def __mul__(self, other):
        if not isinstance(other, Polynomial):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = _as_fraction(other)
            return Polynomial._trusted(
                self.variables, {e: c * other for e, c in self.terms.items()})
        variables = self._merge_vars(self, other)
        a = self._embedded(variables)
        b = other._embedded(variables)
        terms: dict = {}
        for ea, ca in a.items():
            for eb, cb in b.items():
                key = tuple(i + j for i, j in zip(ea, eb))
                terms[key] = terms.get(key, _ZERO) + ca * cb
        return Polynomial._trusted(variables, terms)

    __rmul__ = __mul__

    def __truediv__(self, scalar) -> "Polynomial":
        scalar = _as_fraction(scalar)
        return self * (Fraction(1) / scalar)

    def __pow__(self, n: int) -> "Polynomial":
        if n < 0:
            raise ValueError("negative polynomial power")
        out = Polynomial.constant(1)
        for _ in range(n):
            out = out * self
        return out

    # -- calculus and evaluation -------------------------------------------

    def differentiate(self, var: str) -> "Polynomial":
        if var not in self.variables:
            return Polynomial.zero()
        i = self.variables.index(var)
        terms = {}
        for exps, coeff in self.terms.items():
            if exps[i] == 0:
                continue
            key = exps[:i] + (exps[i] - 1,) + exps[i + 1:]
            terms[key] = terms.get(key, _ZERO) + coeff * exps[i]
        return Polynomial._trusted(self.variables, terms)

    def eval(self, point: Mapping[str, Scalar]) -> Fraction:
        """Evaluate exactly; every variable of the polynomial must be given."""
        missing = [v for v in self.variables if v not in point]
        if missing:
            raise ValueError(f"missing coordinate(s) {missing} in evaluation point")
        values = [_as_fraction(point[v]) for v in self.variables]
        total = _ZERO
        for exps, coeff in self.terms.items():
            term = coeff
            for val, e in zip(values, exps):
                if e:
                    term *= val ** e
            total += term
        return total

    def substitute(self, mapping: Mapping[str, "Polynomial"]) -> "Polynomial":
        """Replace variables by polynomials (unlisted variables are kept)."""
        out = Polynomial.zero()
        for exps, coeff in self.terms.items():
            term = Polynomial.constant(coeff)
            for v, e in zip(self.variables, exps):
                if e:
                    base = mapping.get(v, Polynomial.variable(v))
                    term = term * base ** e
            out = out + term
        return out

    # -- comparison / display ----------------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return (self - other).is_zero

    def __hash__(self):
        return hash((self.variables, tuple(sorted(self.terms.items()))))

    def __repr__(self):
        if not self.terms:
            return "0"
        parts = []
        for exps in sorted(self.terms, key=lambda e: (sum(e), e), reverse=True):
            coeff = self.terms[exps]
            factors = [f"{v}^{e}" if e > 1 else v
                       for v, e in zip(self.variables, exps) if e]
            body = "*".join(factors)
            if not body:
                parts.append(str(coeff))
            elif coeff == 1:
                parts.append(body)
            elif coeff == -1:
                parts.append(f"-{body}")
            else:
                parts.append(f"{coeff}*{body}")
        text = " + ".join(parts)
        return text.replace("+ -", "- ")


X = Polynomial.variable("x")
Y = Polynomial.variable("y")
Z = Polynomial.variable("z")


# ---------------------------------------------------------------------------
# truncated power series
# ---------------------------------------------------------------------------

def _coeff_is_zero(c) -> bool:
    flag = getattr(c, "is_zero", None)
    if flag is not None:
        return bool(flag)
    return c == 0


class PowerSeries:
    """Formal power series in ``t`` truncated at an explicit order.

    Coefficients may live in any exact ring with ``+``, ``*`` and scalar
    multiplication by Fractions (Fraction, Polynomial, or the Gaussian
    envelope functions of :mod:`liegen.heisenberg`).  Operations never
    silently extend the truncation order: combining series keeps the
    smaller order.
    """

    __slots__ = ("order", "coeffs", "zero")

    def __init__(self, coeffs, order: int, zero=_ZERO):
        if order < 0:
            raise ValueError("truncation order must be non-negative")
        coeffs = list(coeffs)
        if len(coeffs) > order + 1:
            raise ValueError("more coefficients than the truncation order allows")
        coeffs += [zero] * (order + 1 - len(coeffs))
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "coeffs", tuple(coeffs))
        object.__setattr__(self, "zero", zero)

    def __setattr__(self, *a):  # pragma: no cover - immutability guard
        raise AttributeError("PowerSeries is immutable")

    @classmethod
    def from_terms(cls, terms: Mapping[int, object], order: int, zero=_ZERO):
        coeffs = [zero] * (order + 1)
        for k, c in terms.items():
            if k <= order:
                coeffs[k] = c
        return cls(coeffs, order, zero)

    def coefficient(self, k: int):
        return self.coeffs[k]

    @property
    def is_zero(self) -> bool:
        return all(_coeff_is_zero(c) for c in self.coeffs)

    def _common_order(self, other: "PowerSeries") -> int:
        return min(self.order, other.order)

    def __add__(self, other: "PowerSeries") -> "PowerSeries":
        k = self._common_order(other)
        coeffs = [self.coeffs[i] + other.coeffs[i] for i in range(k + 1)]
        return PowerSeries(coeffs, k, self.zero)

    def __sub__(self, other: "PowerSeries") -> "PowerSeries":
        k = self._common_order(other)
        coeffs = [self.coeffs[i] + (-1) * other.coeffs[i] for i in range(k + 1)]
        return PowerSeries(coeffs, k, self.zero)

    def __neg__(self) -> "PowerSeries":
        return PowerSeries([(-1) * c for c in self.coeffs], self.order, self.zero)

    def __mul__(self, other: "PowerSeries") -> "PowerSeries":
        k = self._common_order(other)
        zero = self.coeffs[0] * other.zero
        # only pairs of nonzero coefficients contribute
        left = [(i, c) for i, c in enumerate(self.coeffs[:k + 1])
                if not _coeff_is_zero(c)]
        right = {j: c for j, c in enumerate(other.coeffs[:k + 1])
                 if not _coeff_is_zero(c)}
        coeffs = []
        for n in range(k + 1):
            acc = None
            for i, a in left:
                if i > n:
                    break
                b = right.get(n - i)
                if b is not None:
                    prod = a * b
                    acc = prod if acc is None else acc + prod
            coeffs.append(zero if acc is None else acc)
        return PowerSeries(coeffs, k, zero)

    def __eq__(self, other) -> bool:
        if not isinstance(other, PowerSeries):
            return NotImplemented
        return self.order == other.order and (self - other).is_zero

    def __repr__(self):
        parts = [f"({c!r})*t^{k}" for k, c in enumerate(self.coeffs)
                 if not _coeff_is_zero(c)]
        return " + ".join(parts) if parts else "0"


def series_exp(s: PowerSeries) -> PowerSeries:
    """``exp(s)`` as a truncated series; ``s`` must have zero constant term.

    a = exp(s) solves a' = s' a, which on coefficients is the recurrence

        a_0 = 1,    a_n = (1/n) * sum_{j=1..n} j s_j a_{n-j}

    (Brent & Kung 1978; Knuth, TAOCP vol. 2, 4.7).  Only the nonzero s_j
    take part, so the cost is O(order * nonzero terms of s) coefficient
    products instead of O(order) full series products.
    """
    if not _coeff_is_zero(s.coeffs[0]):
        raise ValueError("series_exp requires a zero constant term")
    one = Polynomial.constant(1) if isinstance(s.zero, Polynomial) else _ONE
    weighted = [(j, j * c) for j, c in enumerate(s.coeffs)
                if j and not _coeff_is_zero(c)]
    a = [one]
    for n in range(1, s.order + 1):
        acc = None
        for j, js_j in weighted:
            if j > n:
                break
            term = js_j * a[n - j]
            acc = term if acc is None else acc + term
        a.append(s.zero if acc is None else Fraction(1, n) * acc)
    return PowerSeries(a, s.order, s.zero)


# ---------------------------------------------------------------------------
# Gaussian moments
# ---------------------------------------------------------------------------

_moment_cache: dict[int, Fraction] = {0: _ONE}


def gaussian_moment(k: int) -> Fraction:
    """``integral of x^k * exp(-x^2) over the real line``, in units of sqrt(pi).

    The sqrt(pi) factor is kept symbolic (it must cancel in every exact
    check), so the return value is the rational coefficient only.  Odd
    moments vanish; even ones satisfy M(k) = (k-1)/2 * M(k-2).
    """
    if k < 0:
        raise ValueError("moment order must be non-negative")
    if k % 2:
        return _ZERO
    if k not in _moment_cache:
        _moment_cache[k] = Fraction(k - 1, 2) * gaussian_moment(k - 2)
    return _moment_cache[k]
